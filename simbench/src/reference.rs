//! Pinned simulated references: each cell's cycles, events and a
//! digest of its statistics counters, recorded once (`record`) and
//! checked on every run. A host-time optimisation must leave all three
//! unchanged.

use std::collections::BTreeMap;

use limitless_machine::{MachineStats, RunReport};

/// `reference.txt`, compiled in so a run reads no file.
const PINNED: &str = include_str!("../reference.txt");

/// 64-bit FNV-1a over little-endian words.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a string's bytes.
    pub fn text(&mut self, s: &str) {
        for chunk in s.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of every simulated counter in `s` (host time excluded).
pub fn stats_digest(s: &MachineStats) -> u64 {
    let (e, c, n) = (&s.engine, &s.cache, &s.net);
    let mut h = Fnv::default();
    for w in [
        s.reads,
        s.writes,
        s.hits,
        s.misses,
        s.local_fast_fills,
        s.busy_retries,
        s.upgrade_races,
        s.barriers,
        s.lock_handoffs,
        s.lock_conflicts,
        s.watchdog_fires,
        s.trap_cycles,
        e.read_reqs,
        e.write_reqs,
        e.traps,
        e.read_extend_traps,
        e.write_extend_traps,
        e.ack_traps,
        e.last_ack_traps,
        e.busy_traps,
        e.trap_cycles,
        e.invs_sent,
        e.busys_sent,
        e.stale_msgs,
        c.hits,
        c.victim_hits,
        c.misses,
        c.upgrade_misses,
        c.evictions,
        c.writebacks,
        c.ifetches,
        c.ifetch_misses,
        c.invalidations,
        n.messages,
        n.flits,
        n.tx_wait_cycles,
        n.rx_wait_cycles,
        n.total_latency,
        n.loopback_messages,
    ] {
        h.word(w);
    }
    h.finish()
}

/// What one cell simulated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimResult {
    /// Simulated cycles.
    pub cycles: u64,
    /// Engine events.
    pub events: u64,
    /// [`stats_digest`] of the run's statistics.
    pub digest: u64,
}

impl SimResult {
    /// The simulated part of a run report.
    pub fn of(report: &RunReport) -> Self {
        SimResult {
            cycles: report.cycles.as_u64(),
            events: report.events,
            digest: stats_digest(&report.stats),
        }
    }

    /// One `reference.txt` line.
    pub fn line(&self, key: &str) -> String {
        format!("{key} {} {} {:016x}", self.cycles, self.events, self.digest)
    }
}

/// The pinned table, keyed by cell.
#[derive(Clone, Debug, Default)]
pub struct Reference {
    cells: BTreeMap<String, SimResult>,
}

impl Reference {
    /// The table compiled into the benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `reference.txt` is malformed (a broken build input,
    /// not a runtime condition).
    pub fn pinned() -> Self {
        Self::parse(PINNED).expect("reference.txt is well-formed")
    }

    /// Parses `key cycles events digest-hex` lines; `#` starts a
    /// comment.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cells = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("malformed reference line `{line}`");
            if f.len() != 4 {
                return Err(bad());
            }
            let r = SimResult {
                cycles: f[1].parse().map_err(|_| bad())?,
                events: f[2].parse().map_err(|_| bad())?,
                digest: u64::from_str_radix(f[3], 16).map_err(|_| bad())?,
            };
            cells.insert(f[0].to_string(), r);
        }
        Ok(Reference { cells })
    }

    /// The pinned result for `key`, if any.
    pub fn get(&self, key: &str) -> Option<&SimResult> {
        self.cells.get(key)
    }

    /// Checks `got` against the pinned entry for `key`; `with_digest`
    /// false compares cycles and events only (what a served cell line
    /// carries).
    ///
    /// # Errors
    ///
    /// Returns a message naming the cell: both values on a mismatch, or
    /// that the cell has no pinned entry.
    pub fn check(&self, key: &str, got: &SimResult, with_digest: bool) -> Result<(), String> {
        let Some(want) = self.get(key) else {
            return Err(format!("cell {key} has no pinned reference"));
        };
        let same = want.cycles == got.cycles
            && want.events == got.events
            && (!with_digest || want.digest == got.digest);
        if same {
            Ok(())
        } else {
            Err(format!(
                "cell {key} differs from the pinned reference: got cycles {} events {} digest {:016x}, pinned {} {} {:016x}",
                got.cycles, got.events, got.digest, want.cycles, want.events, want.digest
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_changed_value_names_the_cell() {
        let r = Reference::parse("# c\nk|x 10 20 00000000000000ff\n").unwrap();
        let good = SimResult {
            cycles: 10,
            events: 20,
            digest: 0xff,
        };
        assert!(r.check("k|x", &good, true).is_ok());
        let bad = SimResult { events: 21, ..good };
        let e = r.check("k|x", &bad, true).unwrap_err();
        assert!(e.contains("k|x"), "{e}");
        let other_digest = SimResult { digest: 1, ..good };
        assert!(r.check("k|x", &other_digest, false).is_ok());
        assert!(r.check("k|x", &other_digest, true).is_err());
        let e = r.check("unpinned", &good, true).unwrap_err();
        assert!(e.contains("unpinned"), "{e}");
        assert!(Reference::parse("k 1 2").is_err());
    }

    #[test]
    fn pinned_table_parses() {
        assert!(Reference::pinned()
            .get("paper-fig4|DirnHNBS-|tsp")
            .is_some());
    }
}
