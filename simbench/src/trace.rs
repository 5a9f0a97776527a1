//! In-memory spans recorded around the benchmark's calls into each
//! layer. Spans stay in memory until the run ends; then they are
//! folded into per-name totals and self times.

use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `machine.run`.
    pub name: &'static str,
    /// Identifier shared by the spans of one request: the cell index
    /// of a batch pass, or the job index of an open-loop stream.
    pub id: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start.
    pub start: Instant,
    /// End.
    pub end: Instant,
    /// Numeric attributes copied from the result the span covers.
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    fn seconds(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64()
    }
}

/// Totals for every span of one name.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanTotal {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded.
    pub count: usize,
    /// Summed durations, seconds.
    pub total_s: f64,
    /// Summed self times (duration minus the union of the children's
    /// intervals), seconds.
    pub self_s: f64,
}

/// The span store.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Records a span and returns its index, for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end,
            attrs: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Moves the end of span `idx` (a parent recorded before its
    /// children finished).
    pub fn close(&mut self, idx: usize, end: Instant) {
        self.spans[idx].end = end;
    }

    /// Attaches a numeric attribute to span `idx`.
    pub fn attr(&mut self, idx: usize, key: &'static str, value: f64) {
        self.spans[idx].attrs.push((key, value));
    }

    /// Per-name totals, in first-recorded order.
    pub fn totals(&self) -> Vec<SpanTotal> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: Vec<SpanTotal> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let covered = union_seconds(
                children[i]
                    .iter()
                    .map(|&c| (self.spans[c].start, self.spans[c].end)),
            );
            let self_s = (s.seconds() - covered).max(0.0);
            match out.iter_mut().find(|t| t.name == s.name) {
                Some(t) => {
                    t.count += 1;
                    t.total_s += s.seconds();
                    t.self_s += self_s;
                }
                None => out.push(SpanTotal {
                    name: s.name,
                    count: 1,
                    total_s: s.seconds(),
                    self_s,
                }),
            }
        }
        out
    }

    /// The span table printed at the end of a traced run: per name,
    /// the span count, the distinct request ids, total and self time,
    /// and the mean of every attribute.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<16} {:>8} {:>8} {:>12} {:>12}  attribute means\n",
            "span", "count", "ids", "total s", "self s"
        );
        for t in self.totals() {
            let of_name: Vec<&Span> = self.spans.iter().filter(|s| s.name == t.name).collect();
            let mut ids: Vec<u64> = of_name.iter().map(|s| s.id).collect();
            ids.sort_unstable();
            ids.dedup();
            let mut attrs: Vec<(&str, f64, usize)> = Vec::new();
            for (k, v) in of_name.iter().flat_map(|s| &s.attrs) {
                match attrs.iter_mut().find(|(name, _, _)| name == k) {
                    Some(a) => {
                        a.1 += v;
                        a.2 += 1;
                    }
                    None => attrs.push((k, *v, 1)),
                }
            }
            let attrs: Vec<String> = attrs
                .iter()
                .map(|(k, sum, n)| format!("{k}={:.4}", sum / *n as f64))
                .collect();
            out.push_str(&format!(
                "{:<16} {:>8} {:>8} {:>12.6} {:>12.6}  {}\n",
                t.name,
                t.count,
                ids.len(),
                t.total_s,
                t.self_s,
                attrs.join(" ")
            ));
        }
        out
    }
}

/// Length of the union of intervals, seconds.
fn union_seconds(intervals: impl Iterator<Item = (Instant, Instant)>) -> f64 {
    let mut v: Vec<(Instant, Instant)> = intervals.collect();
    v.sort_by_key(|&(s, _)| s);
    let mut total = 0.0;
    let mut cur: Option<(Instant, Instant)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce.saturating_duration_since(cs).as_secs_f64();
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce.saturating_duration_since(cs).as_secs_f64();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::default();
        let job = tr.record("job", 0, None, at(0), at(100));
        // Two overlapping children cover [0, 60]; one more covers
        // [70, 80]: 70 ms covered, 30 ms self.
        tr.record("cell", 0, Some(job), at(0), at(50));
        tr.record("cell", 0, Some(job), at(10), at(60));
        tr.record("cell", 0, Some(job), at(70), at(80));
        let totals = tr.totals();
        let job = totals.iter().find(|t| t.name == "job").unwrap();
        assert!((job.self_s - 0.030).abs() < 1e-9, "{job:?}");
        let cell = totals.iter().find(|t| t.name == "cell").unwrap();
        assert_eq!(cell.count, 3);
        assert!((cell.total_s - 0.110).abs() < 1e-9);
    }
}
