//! The batch workloads: a protocol × application grid run cell after
//! cell on one thread, every cell timed phase by phase through the
//! public calls of the apps and machine layers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use limitless_apps::{registry, AppSpec, Scale};
use limitless_bench::{cfg_sharded, ExperimentSpec, Harness};
use limitless_core::ProtocolSpec;
use limitless_machine::{Machine, MachineStats};

use crate::host::Probe;
use crate::reference::{Fnv, Reference, SimResult};
use crate::stats::{median, Tail};
use crate::trace::Tracer;

/// One simulation: an application spec on a machine shape.
#[derive(Clone, Debug)]
pub struct CellDef {
    /// Reference key: `<workload>|<protocol>|<app spec>`.
    pub key: String,
    /// Registry spec of the application.
    pub spec: AppSpec,
    /// Coherence protocol.
    pub protocol: ProtocolSpec,
    /// Machine size.
    pub nodes: usize,
    /// Event lanes (1 = the serial engine).
    pub shards: usize,
    /// Problem-size scale the spec resolves at.
    pub scale: Scale,
}

impl CellDef {
    /// A cell keyed under `prefix`.
    pub fn new(
        prefix: &str,
        spec: &str,
        protocol: ProtocolSpec,
        nodes: usize,
        shards: usize,
        scale: Scale,
    ) -> Self {
        CellDef {
            key: format!("{prefix}|{protocol}|{spec}"),
            spec: spec.parse().expect("benchmark app specs are well-formed"),
            protocol,
            nodes,
            shards,
            scale,
        }
    }
}

/// A grid of cells.
#[derive(Clone, Debug)]
pub struct Grid {
    /// The cells in row-major (protocol, app) order.
    pub cells: Vec<CellDef>,
}

impl Grid {
    /// The Figure 4 grid — the seven spectrum protocols against the six
    /// paper applications at paper scale on 64 nodes — on `shards`
    /// event lanes. Keyed as `paper-fig4` for any lane count: the
    /// sharded engine must reproduce the serial reference exactly.
    pub fn paper_fig4(shards: usize) -> Grid {
        let apps: Vec<String> = registry::PAPER_APPS.iter().map(|s| s.to_string()).collect();
        Self::spectrum("paper-fig4", &apps, None, shards)
    }

    /// `scale:nodes=1024` with synth seed `seed` under the seven
    /// spectrum protocols, serial engine, paper scale.
    pub fn scale_1024(seed: u64) -> Grid {
        let app = format!("scale:nodes=1024,seed={seed}");
        Self::spectrum("scale-1024", &[app], Some(1024), 1)
    }

    fn spectrum(prefix: &str, apps: &[String], nodes: Option<usize>, shards: usize) -> Grid {
        let h = Harness {
            scale: Scale::Paper,
            nodes_override: nodes,
            shards,
        };
        let spec = ExperimentSpec::spectrum_grid_for(h, apps).expect("benchmark app specs resolve");
        let cells = spec
            .protocols
            .iter()
            .flat_map(|(_, p)| {
                apps.iter()
                    .map(|a| CellDef::new(prefix, a, *p, spec.nodes, spec.shards, h.scale))
            })
            .collect();
        Grid { cells }
    }
}

/// Host seconds of each phase of one cell, with the host's speed while
/// it ran.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    /// `registry::build`.
    pub build: f64,
    /// `App::programs` and `App::init_memory`.
    pub programs: f64,
    /// `Machine::new`.
    pub new: f64,
    /// Initial memory pokes and `Machine::load`.
    pub load: f64,
    /// `Machine::run`.
    pub run: f64,
    /// Checking `App::expected_results` against memory.
    pub verify: f64,
    /// Dropping the machine and the application.
    pub drop: f64,
    /// `Machine::reset` of the finished machine, when timed (0
    /// otherwise); never part of the cell's own time.
    pub reset: f64,
    /// Host speed around the cell (see [`crate::host`]); 1 until the
    /// batch loop probes it.
    pub speed: f64,
}

impl Phases {
    /// The same phases in seconds of the defining host.
    pub fn nominal(&self) -> Phases {
        let s = self.speed;
        Phases {
            build: self.build * s,
            programs: self.programs * s,
            new: self.new * s,
            load: self.load * s,
            run: self.run * s,
            verify: self.verify * s,
            drop: self.drop * s,
            reset: self.reset * s,
            speed: 1.0,
        }
    }

    /// Set-up: everything before the simulation starts.
    pub fn setup(&self) -> f64 {
        self.build + self.programs + self.new + self.load
    }

    /// The cell's host time: build, generate, construct, run, verify
    /// and tear down.
    pub fn wall(&self) -> f64 {
        self.setup() + self.run + self.verify + self.drop
    }
}

/// One completed cell.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// Phase timings.
    pub phases: Phases,
    /// Simulated result.
    pub sim: SimResult,
    /// Simulated statistics.
    pub stats: MachineStats,
}

/// Why a cell run failed; each variant carries a message naming the
/// cell.
#[derive(Debug)]
pub enum CellFailure {
    /// The cell produced a wrong result (or its spec did not build).
    Wrong(String),
    /// The cell panicked.
    Panicked(String),
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellFailure::Wrong(m) | CellFailure::Panicked(m) => f.write_str(m),
        }
    }
}

/// Runs `cell` once. With a tracer, records a `cell` span (id `id`)
/// under `parent` with one child span per phase. With `time_reset`,
/// also runs `Machine::reset` on the finished machine, under its own
/// span and outside the cell's own time ([`Phases::wall`]).
///
/// # Errors
///
/// Returns why the cell failed: a panic, or an expected result that
/// does not match.
pub fn run_cell(
    cell: &CellDef,
    trace: Option<(&mut Tracer, usize, u64)>,
    time_reset: bool,
) -> Result<CellRun, CellFailure> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let app = registry::build(&cell.spec, cell.scale).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let programs = app.programs(cell.nodes);
        let init = app.init_memory();
        let t2 = Instant::now();
        let mut m = Machine::new(cfg_sharded(cell.nodes, cell.protocol, cell.shards));
        let t3 = Instant::now();
        for (a, v) in init {
            m.poke(a, v);
        }
        m.load(programs);
        let t4 = Instant::now();
        let report = m.run();
        let t5 = Instant::now();
        let wrong = app
            .expected_results()
            .into_iter()
            .find(|&(a, want)| m.peek(a) != want);
        let t6 = Instant::now();
        if time_reset {
            m.reset();
        }
        let t7 = Instant::now();
        drop(m);
        drop(app);
        let t8 = Instant::now();
        if let Some((a, want)) = wrong {
            return Err(format!("result at {a} is not the expected {want}"));
        }
        Ok(([t0, t1, t2, t3, t4, t5, t6, t7, t8], report))
    }));
    let (t, report) = match outcome {
        Ok(Ok(done)) => done,
        Ok(Err(e)) => return Err(CellFailure::Wrong(format!("cell {}: {e}", cell.key))),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string());
            return Err(CellFailure::Panicked(format!(
                "cell {} panicked: {msg}",
                cell.key
            )));
        }
    };
    let secs = |a: usize, b: usize| t[b].saturating_duration_since(t[a]).as_secs_f64();
    let phases = Phases {
        build: secs(0, 1),
        programs: secs(1, 2),
        new: secs(2, 3),
        load: secs(3, 4),
        run: secs(4, 5),
        verify: secs(5, 6),
        drop: secs(7, 8),
        reset: secs(6, 7),
        speed: 1.0,
    };
    if let Some((tracer, parent, id)) = trace {
        let span = tracer.record("cell", id, Some(parent), t[0], t[8]);
        let mut child = |name, a: usize, b: usize| {
            tracer.record(name, id, Some(span), t[a], t[b]);
        };
        child("apps.build", 0, 1);
        child("apps.programs", 1, 2);
        child("machine.new", 2, 3);
        child("machine.load", 3, 4);
        child("machine.run", 4, 5);
        child("apps.verify", 5, 6);
        if time_reset {
            child("machine.reset", 6, 7);
        }
        child("machine.drop", 7, 8);
    }
    Ok(CellRun {
        phases,
        sim: SimResult::of(&report),
        stats: report.stats,
    })
}

/// Everything one batch window measured.
#[derive(Debug, Default)]
pub struct BatchRun {
    /// Reference keys, in grid order.
    pub keys: Vec<String>,
    /// Phase timings of every successful run, per cell.
    pub runs: Vec<Vec<Phases>>,
    /// The first successful run's result and statistics, per cell.
    pub first: Vec<Option<(SimResult, MachineStats)>>,
    /// Cell runs attempted.
    pub attempted: usize,
    /// Failed runs, described: panics and wrong results.
    pub failures: Vec<String>,
    /// Failed runs whose simulated output was wrong (a subset of
    /// `failures`).
    pub wrong: usize,
}

/// Runs `grid` cell after cell, wrapping around, until `seconds` have
/// passed and at least `min_runs` cell runs are done, stopping only at
/// the end of a pass so every cell has as many runs as any other. Every
/// run is checked against the pinned reference, and against the first
/// run of the same cell.
pub fn run_batch(
    grid: &Grid,
    refs: &Reference,
    seconds: f64,
    min_runs: usize,
    mut tracer: Option<&mut Tracer>,
) -> BatchRun {
    let n = grid.cells.len();
    let mut out = BatchRun {
        keys: grid.cells.iter().map(|c| c.key.clone()).collect(),
        runs: vec![Vec::new(); n],
        first: vec![None; n],
        ..BatchRun::default()
    };
    let start = Instant::now();
    let workload = tracer
        .as_deref_mut()
        .map(|t| t.record("workload", 0, None, start, start));
    let time_reset = tracer.is_some();
    let mut i = 0;
    let mut probe = Probe::default();
    let mut before = probe.speed();
    loop {
        let c = i % n;
        let cell = &grid.cells[c];
        out.attempted += 1;
        let trace = match (tracer.as_deref_mut(), workload) {
            (Some(t), Some(w)) => Some((t, w, c as u64)),
            _ => None,
        };
        let outcome = run_cell(cell, trace, time_reset);
        let after = probe.speed();
        match outcome {
            Ok(mut run) => {
                run.phases.speed = (before + after) / 2.0;
                let same_as_first = match &out.first[c] {
                    Some((sim, _)) if *sim != run.sim => Err(format!(
                        "cell {} is not deterministic: {:?} after {:?}",
                        cell.key, run.sim, sim
                    )),
                    _ => Ok(()),
                };
                match refs.check(&cell.key, &run.sim, true).and(same_as_first) {
                    Ok(()) => {
                        out.runs[c].push(run.phases);
                        if out.first[c].is_none() {
                            out.first[c] = Some((run.sim, run.stats));
                        }
                    }
                    Err(e) => {
                        out.wrong += 1;
                        out.failures.push(e);
                    }
                }
            }
            Err(CellFailure::Wrong(e)) => {
                out.wrong += 1;
                out.failures.push(e);
            }
            Err(CellFailure::Panicked(e)) => out.failures.push(e),
        }
        before = after;
        i += 1;
        if i % n == 0 && i >= min_runs && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    if let (Some(t), Some(w)) = (tracer, workload) {
        t.close(w, Instant::now());
    }
    out
}

impl BatchRun {
    /// Per cell, the median of `f` over its runs in defining-host
    /// seconds; summed over the grid.
    fn per_cell_median(&self, f: impl Fn(&Phases) -> f64) -> f64 {
        self.runs
            .iter()
            .map(|r| median(&r.iter().map(|p| f(&p.nominal())).collect::<Vec<_>>()))
            .sum()
    }

    /// One pass in defining-host seconds: per-cell median host time,
    /// summed over the grid.
    pub fn wall_s(&self) -> f64 {
        self.per_cell_median(Phases::wall)
    }

    /// One pass in host seconds as measured, before rescaling.
    pub fn raw_wall_s(&self) -> f64 {
        self.runs
            .iter()
            .map(|r| median(&r.iter().map(Phases::wall).collect::<Vec<_>>()))
            .sum()
    }

    /// Set-up of one pass: per-cell median set-up, summed.
    pub fn setup_s(&self) -> f64 {
        self.per_cell_median(Phases::setup)
    }

    /// Mean host speed over every run (1 = the defining host).
    pub fn mean_speed(&self) -> f64 {
        let all: Vec<f64> = self.runs.iter().flatten().map(|p| p.speed).collect();
        all.iter().sum::<f64>() / all.len().max(1) as f64
    }

    /// Simulated events of one pass.
    pub fn events_per_pass(&self) -> u64 {
        self.first.iter().flatten().map(|(s, _)| s.events).sum()
    }

    /// Events per second inside `Machine::run`, over one pass of
    /// per-cell median run times.
    pub fn events_per_s(&self) -> f64 {
        self.events_per_pass() as f64 / self.per_cell_median(|p| p.run)
    }

    /// Latency of every successful cell run, milliseconds.
    pub fn cell_latency(&self) -> Tail {
        let ms: Vec<f64> = self
            .runs
            .iter()
            .flatten()
            .map(|p| p.nominal().wall() * 1e3)
            .collect();
        Tail::of(&ms)
    }

    /// Mean of one phase over every run, seconds.
    pub fn mean_phase(&self, f: impl Fn(&Phases) -> f64) -> f64 {
        let all: Vec<f64> = self
            .runs
            .iter()
            .flatten()
            .map(|p| f(&p.nominal()))
            .collect();
        all.iter().sum::<f64>() / all.len().max(1) as f64
    }

    /// Nanoseconds per simulated event inside `Machine::run`, over
    /// every run.
    pub fn ns_per_event(&self) -> f64 {
        let (mut secs, mut events) = (0.0, 0u64);
        for (runs, first) in self.runs.iter().zip(&self.first) {
            if let Some((sim, _)) = first {
                secs += runs.iter().map(|p| p.nominal().run).sum::<f64>();
                events += sim.events * runs.len() as u64;
            }
        }
        secs * 1e9 / events.max(1) as f64
    }

    /// The simulated statistics of one pass, summed over the grid.
    pub fn pass_stats(&self) -> MachineStats {
        let mut total = MachineStats::default();
        for (_, s) in self.first.iter().flatten() {
            total.merge(s);
        }
        total
    }

    /// Digest of one pass's simulated results in grid order, so runs at
    /// any seed compare across commits.
    pub fn sim_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for (key, first) in self.keys.iter().zip(&self.first) {
            h.text(key);
            if let Some((s, _)) = first {
                h.word(s.cycles);
                h.word(s.events);
                h.word(s.digest);
            }
        }
        h.finish()
    }
}
