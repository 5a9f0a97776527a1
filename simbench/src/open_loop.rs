//! The open-loop service workload: a seeded Poisson stream of small
//! jobs paced into `serve::serve` by the service's own input reader, so
//! the generator adds no thread. Every cell's latency runs from its
//! job's due time to its result line, so a stall anywhere counts
//! against every job it delays.

use std::io::{BufReader, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use limitless_apps::Scale;
use limitless_bench::serve::{serve, ServeConfig};
use limitless_core::ProtocolSpec;
use limitless_sim::SplitMix64;
use limitless_stats::JsonValue;

use crate::grid::CellDef;
use crate::host::{HostClock, Probe};
use crate::reference::{Fnv, Reference, SimResult};
use crate::stats::{median, Tail};
use crate::trace::Tracer;

/// The applications jobs draw from: the paper's worker plus one synth
/// per sharing pattern, all at quick scale.
pub const CATALOGUE_APPS: [&str; 4] = [
    "worker:ws=4",
    "synth:seed=3,pattern=migratory,ws=4",
    "synth:seed=5,pattern=producer-consumer,ws=6",
    "synth:seed=9,pattern=wide-shared,ws=10",
];

/// The machine sizes jobs draw from.
pub const CATALOGUE_NODES: [usize; 2] = [16, 64];

/// Offered load in cells per defining-host second. On the 2-core host
/// the benchmark was defined on, `simbench capacity` met a p99 under
/// 100 ms with no job refused up to 750 cells/s, yet 15-second streams
/// at 630 refused jobs, so the capacity is taken as about 570. At 70% of
/// that (400) the p99 spread across seeds exceeded every allowed bound
/// whenever a neighbour took CPU time, so the stream runs at half the
/// capacity; it is frozen so every commit sees the same stream.
pub const RATE_CELLS_PER_S: f64 = 280.0;

/// Mean cells per job (uniform on 1..=4).
const MEAN_CELLS_PER_JOB: f64 = 2.5;

/// The service under test: two workers and the default queue.
pub const SERVICE: OpenLoopConfig = OpenLoopConfig {
    threads: 2,
    queue_capacity: 64,
};

/// How often the reader re-measures the host's speed.
const RETUNE_EVERY: Duration = Duration::from_millis(100);

/// The reader probes only when the next job is at least this far off.
const PROBE_ROOM: Duration = Duration::from_millis(3);

/// How often a reader that is due to probe checks whether the service
/// has gone idle.
const IDLE_POLL: Duration = Duration::from_millis(1);

/// Reference key of a catalogue cell.
pub fn entry_key(nodes: usize, protocol: &str, app: &str) -> String {
    format!("serve-open|n{nodes}|{protocol}|{app}")
}

/// Every catalogue cell, as the benchmark's own cell runner sees it.
pub fn catalogue() -> Vec<CellDef> {
    let mut out = Vec::new();
    for nodes in CATALOGUE_NODES {
        for p in ProtocolSpec::spectrum() {
            for app in CATALOGUE_APPS {
                let mut cell = CellDef::new("", app, p, nodes, 1, Scale::Quick);
                cell.key = entry_key(nodes, &p.to_string(), app);
                out.push(cell);
            }
        }
    }
    out
}

/// One job of the stream: a small grid on one machine size.
#[derive(Clone, Debug)]
pub struct Job {
    /// When the job is due, from the start of the stream.
    pub due: Duration,
    /// Machine size.
    pub nodes: usize,
    /// Application specs.
    pub apps: Vec<String>,
    /// Protocols.
    pub protocols: Vec<ProtocolSpec>,
}

impl Job {
    /// Cells in the job's grid.
    pub fn cells(&self) -> usize {
        self.apps.len() * self.protocols.len()
    }

    /// Reference keys of the job's cells.
    fn keys(&self) -> Vec<String> {
        self.protocols
            .iter()
            .flat_map(|p| {
                self.apps
                    .iter()
                    .map(move |a| entry_key(self.nodes, &p.to_string(), a))
            })
            .collect()
    }

    /// The NDJSON job line for job number `id`.
    fn line(&self, id: usize) -> String {
        let strs = |v: Vec<String>| JsonValue::Arr(v.into_iter().map(JsonValue::Str).collect());
        JsonValue::Obj(vec![
            ("id".to_string(), JsonValue::Str(format!("j{id}"))),
            ("apps".to_string(), strs(self.apps.clone())),
            (
                "protocols".to_string(),
                strs(self.protocols.iter().map(ToString::to_string).collect()),
            ),
            ("nodes".to_string(), JsonValue::from_u64(self.nodes as u64)),
        ])
        .compact()
    }
}

/// Uniform draw from `0..n`.
fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// `k` distinct picks from `items`, in draw order.
fn pick<T: Clone>(rng: &mut SplitMix64, items: &[T], k: usize) -> Vec<T> {
    let mut pool = items.to_vec();
    (0..k)
        .map(|_| pool.swap_remove(below(rng, pool.len())))
        .collect()
}

/// The job stream for `seed`: a Poisson process of jobs at `rate`
/// cells per second over `seconds`, drawn as a fixed job count with
/// uniform arrival times (a Poisson process conditioned on its count,
/// so every seed offers the same load). Each job has 1–4 cells.
pub fn draw_jobs(seed: u64, rate: f64, seconds: f64) -> Vec<Job> {
    let mut rng = SplitMix64::new(seed ^ 0x0be7_10ad_5eed);
    let jobs = ((rate * seconds / MEAN_CELLS_PER_JOB).round() as usize).max(1);
    let mut dues: Vec<f64> = (0..jobs).map(|_| rng.next_f64() * seconds).collect();
    dues.sort_by(f64::total_cmp);
    let protocols = ProtocolSpec::spectrum();
    let apps: Vec<String> = CATALOGUE_APPS.iter().map(|s| s.to_string()).collect();
    dues.into_iter()
        .map(|due| {
            let shapes: &[(usize, usize)] = match 1 + below(&mut rng, 4) {
                1 => &[(1, 1)],
                2 => &[(1, 2), (2, 1)],
                3 => &[(1, 3), (3, 1)],
                _ => &[(1, 4), (4, 1), (2, 2)],
            };
            let (a, p) = shapes[below(&mut rng, shapes.len())];
            Job {
                due: Duration::from_secs_f64(due),
                nodes: CATALOGUE_NODES[below(&mut rng, CATALOGUE_NODES.len())],
                apps: pick(&mut rng, &apps, a),
                protocols: pick(&mut rng, &protocols, p),
            }
        })
        .collect()
}

/// The service's input: hands out each job line no earlier than its
/// due time. Due times are in defining-host seconds, on a clock that
/// follows the host's speed, so the offered load stays the same share of
/// the service's capacity while the host drifts. The reader re-measures
/// the speed only while the service is idle (every job it has handed
/// over has finished), so the probe never shares the host with the
/// workers: a probe beside them would read their load as a slower host
/// and cancel part of any change to them.
struct Paced<'a> {
    /// `(due, line)` per job.
    lines: &'a [(f64, String)],
    next: usize,
    buf: Vec<u8>,
    pos: usize,
    /// When each line was handed to the service.
    handed: Vec<Instant>,
    clock: HostClock,
    probe: Probe,
    /// The last three probe readings.
    recent: Vec<f64>,
    next_probe: Instant,
    /// Jobs the service has finished with (see [`Sink`]).
    settled: &'a AtomicUsize,
}

impl Paced<'_> {
    /// Probes and returns the median of the last three readings.
    fn speed(&mut self) -> f64 {
        if self.recent.len() == 3 {
            self.recent.remove(0);
        }
        self.recent.push(self.probe.speed());
        median(&self.recent)
    }

    /// Blocks until the clock reads `due`.
    fn wait_for(&mut self, due: f64) {
        loop {
            let now = Instant::now();
            let at = self.clock.instant_of(due);
            if at <= now {
                return;
            }
            let room = at - now;
            if now < self.next_probe {
                std::thread::sleep(room.min(self.next_probe - now));
            } else if room < PROBE_ROOM {
                std::thread::sleep(room);
            } else if self.settled.load(Ordering::Acquire) < self.next {
                std::thread::sleep(room.min(IDLE_POLL));
            } else {
                let speed = self.speed();
                let t = Instant::now();
                self.clock.retune(t, speed);
                self.next_probe = t + RETUNE_EVERY;
            }
        }
    }
}

impl Read for Paced<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.buf.len() {
            let Some((due, line)) = self.lines.get(self.next) else {
                return Ok(0);
            };
            self.wait_for(*due);
            self.handed.push(Instant::now());
            self.buf.clear();
            self.buf.extend_from_slice(line.as_bytes());
            self.buf.push(b'\n');
            self.pos = 0;
            self.next += 1;
        }
        let n = (self.buf.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The service's output: timestamps each result line as it lands, and
/// counts the jobs the service has finished with — a `job` line after a
/// job's last cell, or a `reject` line.
struct Sink<'a> {
    pending: Vec<u8>,
    lines: Vec<(Instant, String)>,
    settled: &'a AtomicUsize,
}

impl Write for Sink<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(buf);
        while let Some(p) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=p).collect();
            let text = String::from_utf8_lossy(&line[..p]).into_owned();
            let at = Instant::now();
            if text.starts_with(r#"{"type":"job""#) || text.starts_with(r#"{"type":"reject""#) {
                self.settled.fetch_add(1, Ordering::Release);
            }
            self.lines.push((at, text));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Service shape.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopConfig {
    /// Worker threads.
    pub threads: usize,
    /// Queue capacity in cells.
    pub queue_capacity: usize,
}

/// One offered cell; times are in defining-host seconds.
#[derive(Clone, Debug)]
pub struct ServedCell {
    /// Job index.
    pub job: usize,
    /// Reference key.
    pub key: String,
    /// Due time to result line, seconds; infinite when the cell failed
    /// or its job was refused.
    pub latency: f64,
    /// Admission to dequeue (`queue_ms`), seconds.
    pub queue: f64,
    /// `Machine::run` (`wall_seconds`), seconds.
    pub run: f64,
    /// Result line minus hand-over, queueing and simulation: the
    /// cell's set-up, seconds.
    pub setup: f64,
    /// Ran on a reset machine.
    pub reused: bool,
    /// Simulated events.
    pub events: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Completed with the pinned result.
    pub ok: bool,
    /// When its result line landed.
    pub line_at: Option<Instant>,
}

/// Everything one open-loop session measured.
#[derive(Debug, Default)]
pub struct OpenLoopRun {
    /// Every offered cell, refused ones included.
    pub cells: Vec<ServedCell>,
    /// Jobs the service refused.
    pub rejected_jobs: usize,
    /// How late the reader handed each job over, defining-host seconds.
    pub late: Vec<f64>,
    /// `serve::serve` call to return, defining-host seconds.
    pub session_s: f64,
    /// First due time to last result line, defining-host seconds.
    pub stream_s: f64,
    /// Failed cells and refused jobs, described.
    pub failures: Vec<String>,
    /// Cells whose simulated output was wrong.
    pub wrong: usize,
    /// Mean host speed the reader measured (1 = the defining host).
    pub mean_speed: f64,
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    v.get(key).ok()
}

/// Serves `jobs` open-loop and collects every cell's outcome. With a
/// tracer, records `workload` → `job` → `cell` spans from due time to
/// result line.
pub fn run_open_loop(
    cfg: &OpenLoopConfig,
    jobs: &[Job],
    refs: &Reference,
    tracer: Option<&mut Tracer>,
) -> OpenLoopRun {
    let serve_cfg = ServeConfig {
        threads: cfg.threads,
        queue_capacity: cfg.queue_capacity,
        scale: Scale::Quick,
        ..ServeConfig::default()
    };
    let lines: Vec<(f64, String)> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.due.as_secs_f64(), j.line(i)))
        .collect();
    let mut probe = Probe::default();
    let recent: Vec<f64> = (0..3).map(|_| probe.speed()).collect();
    let settled = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut paced = Paced {
        lines: &lines,
        next: 0,
        buf: Vec::new(),
        pos: 0,
        handed: Vec::with_capacity(jobs.len()),
        clock: HostClock::new(t0, median(&recent)),
        probe,
        recent,
        next_probe: t0 + RETUNE_EVERY,
        settled: &settled,
    };
    let mut sink = Sink {
        pending: Vec::new(),
        lines: Vec::new(),
        settled: &settled,
    };
    serve(&serve_cfg, BufReader::new(&mut paced), &mut sink);
    let ended = Instant::now();
    let clock = &paced.clock;

    let mut out = OpenLoopRun {
        session_s: clock.at(ended),
        late: lines
            .iter()
            .zip(&paced.handed)
            .map(|((due, _), at)| (clock.at(*at) - due).max(0.0))
            .collect(),
        mean_speed: clock.mean_speed(),
        ..OpenLoopRun::default()
    };
    // Result lines per job, then per cell key.
    let mut lines_of: Vec<Vec<(Instant, JsonValue)>> = vec![Vec::new(); jobs.len()];
    let mut rejected = vec![false; jobs.len()];
    let mut last_line = t0;
    for (at, text) in &sink.lines {
        let Ok(v) = JsonValue::parse(text) else {
            out.failures
                .push(format!("unparseable service line `{text}`"));
            continue;
        };
        let ty = field(&v, "type")
            .and_then(|t| t.as_str().ok())
            .unwrap_or("");
        let job = field(&v, "job")
            .and_then(|j| j.as_str().ok())
            .and_then(|j| j.strip_prefix('j'))
            .and_then(|j| j.parse::<usize>().ok())
            .filter(|&j| j < jobs.len());
        match (ty, job) {
            ("cell", Some(j)) => {
                last_line = last_line.max(*at);
                lines_of[j].push((*at, v));
            }
            ("reject", Some(j)) => rejected[j] = true,
            ("job", _) | ("served", _) => {}
            _ => out
                .failures
                .push(format!("unexpected service line `{text}`")),
        }
    }
    out.stream_s = clock.at(last_line) - lines.first().map_or(0.0, |l| l.0);

    for (j, job) in jobs.iter().enumerate() {
        let due = job.due.as_secs_f64();
        let handed = paced.handed.get(j).map_or(due, |&at| clock.at(at).max(due));
        let mut got = std::mem::take(&mut lines_of[j]);
        if rejected[j] {
            out.rejected_jobs += 1;
            out.failures
                .push(format!("job j{j} ({} cells) refused", job.cells()));
        }
        for key in job.keys() {
            let mut cell = ServedCell {
                job: j,
                key: key.clone(),
                latency: f64::INFINITY,
                queue: 0.0,
                run: 0.0,
                setup: 0.0,
                reused: false,
                events: 0,
                cycles: 0,
                ok: false,
                line_at: None,
            };
            let found = got.iter().position(|(_, v)| {
                let s = |k| field(v, k).and_then(|x| x.as_str().ok()).unwrap_or("");
                entry_key(job.nodes, s("protocol"), s("app")) == key
            });
            if let Some(pos) = found {
                let (at, v) = got.swap_remove(pos);
                let num = |k| field(&v, k).and_then(|x| x.as_f64().ok()).unwrap_or(0.0);
                let int = |k| field(&v, k).and_then(|x| x.as_u64().ok()).unwrap_or(0);
                // Host durations the line reports, rescaled at the
                // speed in force when it landed.
                let speed = clock.speed_at(at);
                let line = clock.at(at);
                cell.queue = num("queue_ms") / 1e3 * speed;
                cell.run = num("wall_seconds") * speed;
                cell.reused = matches!(field(&v, "reused"), Some(JsonValue::Bool(true)));
                cell.events = int("events");
                cell.cycles = int("cycles");
                cell.setup = (line - handed - cell.queue - cell.run).max(0.0);
                cell.line_at = Some(at);
                if let Some(err) = field(&v, "error").and_then(|e| e.as_str().ok()) {
                    out.failures
                        .push(format!("cell {key} (job j{j}) failed: {err}"));
                } else {
                    let sim = SimResult {
                        cycles: cell.cycles,
                        events: cell.events,
                        digest: 0,
                    };
                    match refs.check(&key, &sim, false) {
                        Ok(()) => {
                            cell.ok = true;
                            cell.latency = line - due;
                        }
                        Err(e) => {
                            out.wrong += 1;
                            out.failures.push(format!("{e} (job j{j})"));
                        }
                    }
                }
            } else if !rejected[j] {
                out.failures
                    .push(format!("cell {key} (job j{j}) produced no result line"));
            }
            out.cells.push(cell);
        }
    }
    if let Some(tracer) = tracer {
        record_spans(tracer, jobs, &out, clock, t0, last_line);
    }
    out
}

/// Records `workload` → `job` → `cell` spans from due time to result
/// line, each cell carrying its line's `queue_ms`, `wall_seconds` and
/// `reused`.
fn record_spans(
    tracer: &mut Tracer,
    jobs: &[Job],
    run: &OpenLoopRun,
    clock: &HostClock,
    start: Instant,
    end: Instant,
) {
    let workload = tracer.record("workload", 0, None, start, end);
    let mut cells = run.cells.iter().peekable();
    for (j, job) in jobs.iter().enumerate() {
        let due = clock.instant_of(job.due.as_secs_f64());
        let span = tracer.record("job", j as u64, Some(workload), due, due);
        let mut job_end = due;
        while let Some(c) = cells.next_if(|c| c.job == j) {
            let Some(at) = c.line_at else {
                continue;
            };
            job_end = job_end.max(at);
            let cell = tracer.record("cell", j as u64, Some(span), due, at);
            tracer.attr(cell, "queue_ms", c.queue * 1e3);
            tracer.attr(cell, "wall_seconds", c.run);
            tracer.attr(cell, "reused", f64::from(u8::from(c.reused)));
        }
        tracer.close(span, job_end);
    }
}

impl OpenLoopRun {
    /// Cells that completed with the pinned result.
    pub fn ok_cells(&self) -> impl Iterator<Item = &ServedCell> {
        self.cells.iter().filter(|c| c.ok)
    }

    /// Cells that failed or were refused.
    pub fn failed_cells(&self) -> usize {
        self.cells.len() - self.ok_cells().count()
    }

    /// Due-to-line latency of every offered cell, milliseconds.
    pub fn latency(&self) -> Tail {
        let ms: Vec<f64> = self.cells.iter().map(|c| c.latency * 1e3).collect();
        Tail::of(&ms)
    }

    /// Events per host second inside `Machine::run`.
    pub fn events_per_s(&self) -> f64 {
        let events: u64 = self.ok_cells().map(|c| c.events).sum();
        let secs: f64 = self.ok_cells().map(|c| c.run).sum();
        events as f64 / secs
    }

    /// Completed cells per second of the stream.
    pub fn cells_per_s(&self) -> f64 {
        self.ok_cells().count() as f64 / self.stream_s
    }

    /// Digest of every completed cell's simulated result, in job order.
    pub fn sim_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for c in self.ok_cells() {
            h.word(c.job as u64);
            h.text(&c.key);
            h.word(c.cycles);
            h.word(c.events);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(ms: u64, nodes: usize, app: &str, protocols: Vec<ProtocolSpec>) -> Job {
        Job {
            due: Duration::from_millis(ms),
            nodes,
            apps: vec![app.to_string()],
            protocols,
        }
    }

    #[test]
    fn same_seed_same_stream_and_every_job_fits_the_catalogue() {
        let a = draw_jobs(7, 200.0, 2.0);
        let b = draw_jobs(7, 200.0, 2.0);
        assert_eq!(a.len(), 160);
        let keys = |js: &[Job]| js.iter().flat_map(Job::keys).collect::<Vec<_>>();
        assert_eq!(keys(&a), keys(&b));
        assert_ne!(keys(&a), keys(&draw_jobs(8, 200.0, 2.0)));
        let catalogue: Vec<String> = catalogue().into_iter().map(|c| c.key).collect();
        for j in &a {
            assert!((1..=4).contains(&j.cells()), "{j:?}");
            for k in j.keys() {
                assert!(catalogue.contains(&k), "{k}");
            }
        }
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
    }

    #[test]
    fn a_stalled_worker_raises_later_cells_latency() {
        let cfg = OpenLoopConfig {
            threads: 1,
            queue_capacity: 64,
        };
        let light = |ms| job(ms, 16, CATALOGUE_APPS[1], vec![ProtocolSpec::full_map()]);
        let calm: Vec<Job> = (1..=5).map(|k| light(2 * k)).collect();
        // Every catalogue app under every protocol on 64 nodes, due
        // before the light jobs.
        let heavy = Job {
            due: Duration::ZERO,
            nodes: 64,
            apps: CATALOGUE_APPS.iter().map(|s| s.to_string()).collect(),
            protocols: ProtocolSpec::spectrum(),
        };
        let heavy_cells = heavy.cells();
        let mut stalled = vec![heavy];
        stalled.extend(calm.iter().cloned());
        let refs = Reference::pinned();
        let base = run_open_loop(&cfg, &calm, &refs, None);
        let slow = run_open_loop(&cfg, &stalled, &refs, None);
        assert_eq!(
            base.failed_cells() + slow.failed_cells(),
            0,
            "{:?}",
            slow.failures
        );
        let stall: f64 = slow.cells[..heavy_cells].iter().map(|c| c.run).sum();
        let later = &slow.cells[heavy_cells..];
        for (k, (b, s)) in base.cells.iter().zip(later).enumerate() {
            let due = calm[k].due.as_secs_f64();
            // One worker, FIFO: the light cell cannot finish before the
            // heavy job's simulations, which all ran after the stream
            // started.
            assert!(s.latency >= stall - due, "{s:?} vs stall {stall}");
            assert!(s.latency > b.latency, "{s:?} vs calm {b:?}");
        }
    }

    #[test]
    fn oversized_jobs_on_a_one_cell_queue_count_as_failures() {
        let cfg = OpenLoopConfig {
            threads: 1,
            queue_capacity: 1,
        };
        let two = vec![ProtocolSpec::full_map(), ProtocolSpec::limitless(4)];
        let jobs = vec![
            job(0, 16, CATALOGUE_APPS[0], vec![ProtocolSpec::full_map()]),
            job(1, 16, CATALOGUE_APPS[1], two.clone()),
            job(2, 16, CATALOGUE_APPS[2], two),
        ];
        let run = run_open_loop(&cfg, &jobs, &Reference::pinned(), None);
        assert_eq!(run.rejected_jobs, 2);
        assert_eq!(run.cells.len(), 5);
        assert_eq!(run.failed_cells(), 4, "{:?}", run.failures);
        assert!(run.cells[0].ok);
        let t = run.latency();
        assert!(t.p50.is_infinite() && t.value.is_infinite(), "{t:?}");
    }
}
