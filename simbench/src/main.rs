//! `simbench` — the repository benchmark for the limitless simulator.
//!
//! ```text
//! simbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! simbench record                  # print reference.txt from this commit
//! simbench capacity [--seed N] [--seconds S]   # serve latency at rising rates
//! ```
//!
//! Four workloads (see README.md for why each exists): `paper-fig4`,
//! `scale-1024`, `paper-fig4-s2` and `serve-open`. With `--trace 0`
//! the run prints the end-to-end metrics; with `--trace 1` it runs the
//! workload once untraced and once with spans around every layer call,
//! then prints the per-layer metrics. The last line of standard output
//! is always one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`.

mod grid;
mod host;
mod mem;
mod open_loop;
mod reference;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use limitless_bench::micro;
use limitless_machine::MachineStats;
use limitless_stats::JsonValue;

use grid::{run_batch, run_cell, BatchRun, Grid};
use open_loop::{catalogue, draw_jobs, run_open_loop, RATE_CELLS_PER_S, SERVICE};
use reference::Reference;
use stats::{median, Tail};
use trace::Tracer;

/// Every workload, in the order `all` runs them.
const WORKLOADS: [&str; 4] = ["paper-fig4", "scale-1024", "paper-fig4-s2", "serve-open"];

/// `record` pins `scale-1024` for synth seeds `0..SCALE_PINNED_SEEDS`,
/// and `--seed N` runs synth seed `N % SCALE_PINNED_SEEDS`, so every run
/// is checked against a pinned reference.
const SCALE_PINNED_SEEDS: u64 = 32;

/// Cell runs a batch window needs before it may stop: enough for a
/// p90 with ten samples beyond it.
const MIN_BATCH_RUNS: usize = 100;

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// One workload's outcome.
struct Report {
    workload: &'static str,
    attempted: usize,
    failed: usize,
    wrong: usize,
    failures: Vec<String>,
    sim_digest: u64,
    summary: String,
    metrics: Vec<Metric>,
}

impl Report {
    fn print(&self, seed: u64, seconds: f64, traced: bool) {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!(
            "== {} · seed {seed} · {seconds} s · trace {} · nproc {cores} ==",
            self.workload,
            if traced { "on" } else { "off" }
        );
        println!(
            "{}; {} attempted, {} failed; sim_digest {:016x}",
            self.summary, self.attempted, self.failed, self.sim_digest
        );
        for f in self.failures.iter().take(20) {
            println!("  FAILED {f}");
        }
        if self.failures.len() > 20 {
            println!("  … and {} more failures", self.failures.len() - 20);
        }
        for m in &self.metrics {
            println!(
                "  {:<26} {:>18} {:<6} {}",
                m.name,
                format_value(m.value),
                m.unit,
                m.note
            );
        }
    }

    /// Every metric but `failed_frac`, which reads 0 on a clean run
    /// and so travels as the result line's `failed`/`attempted`.
    fn json_metrics(&self, prefix: &str) -> Vec<(String, JsonValue)> {
        self.metrics
            .iter()
            .filter(|m| m.name != "failed_frac")
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (
                    format!("{prefix}{}", m.name),
                    JsonValue::Obj(vec![
                        ("value".to_string(), JsonValue::from_f64(value)),
                        ("unit".to_string(), JsonValue::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect()
    }
}

fn format_value(v: f64) -> String {
    if v.is_infinite() {
        "inf".to_string()
    } else if v.abs() >= 1e4 || v == v.trunc() {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, JsonValue)>,
) -> String {
    JsonValue::Obj(vec![
        ("correct".to_string(), JsonValue::Bool(correct)),
        (
            "attempted".to_string(),
            JsonValue::from_u64(attempted.max(1) as u64),
        ),
        ("failed".to_string(), JsonValue::from_u64(failed as u64)),
        ("metrics".to_string(), JsonValue::Obj(metrics)),
    ])
    .compact()
}

fn peak_rss() -> Metric {
    metric(
        "peak_rss_mb",
        mem::peak_rss_mib().unwrap_or(0.0),
        "MiB",
        "VmHWM of the process running the workload",
    )
}

fn failed_frac(failed: usize, attempted: usize) -> Metric {
    metric(
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        format!("{failed} of {attempted} operations"),
    )
}

/// The tail metric; a refused or failed request makes it infinite, and
/// the JSON then carries the whole session as a finite stand-in.
fn tail_metric(t: &Tail, session_ms: f64) -> Metric {
    let value = if t.value.is_finite() {
        t.value
    } else {
        session_ms
    };
    let inf = if t.value.is_finite() {
        ""
    } else {
        " (inf: refused or failed requests)"
    };
    metric("cell_tail_ms", value, "ms", format!("{}{inf}", t.note()))
}

fn grid_for(workload: &str, seed: u64) -> Grid {
    match workload {
        "paper-fig4" => Grid::paper_fig4(1),
        "paper-fig4-s2" => Grid::paper_fig4(2),
        _ => Grid::scale_1024(seed % SCALE_PINNED_SEEDS),
    }
}

fn batch_report(workload: &'static str, run: &BatchRun, cells: usize) -> Report {
    Report {
        workload,
        attempted: run.attempted,
        failed: run.failures.len(),
        wrong: run.wrong,
        failures: run.failures.clone(),
        sim_digest: run.sim_digest(),
        summary: format!(
            "{cells} cells per pass, {} events per pass",
            run.events_per_pass()
        ),
        metrics: Vec::new(),
    }
}

fn batch_end_to_end(workload: &'static str, seed: u64, seconds: f64, refs: &Reference) -> Report {
    let grid = grid_for(workload, seed);
    let run = run_batch(&grid, refs, seconds, MIN_BATCH_RUNS, None);
    let cells = grid.cells.len();
    let wall = run.wall_s();
    let lat = run.cell_latency();
    let mut r = batch_report(workload, &run, cells);
    r.metrics = vec![
        metric(
            "events_per_s",
            run.events_per_s(),
            "1/s",
            "events per second in Machine::run",
        ),
        metric(
            "wall_s",
            wall,
            "s",
            format!(
                "one pass, per-cell medians summed ({:.4} s as measured, host speed {:.3})",
                run.raw_wall_s(),
                run.mean_speed()
            ),
        ),
        metric(
            "setup_s",
            run.setup_s(),
            "s",
            "one pass: build + programs + Machine::new + load, per-cell medians summed",
        ),
        peak_rss(),
        metric(
            "cells_per_s",
            cells as f64 / wall,
            "1/s",
            "cells per pass second",
        ),
        metric(
            "cell_p50_ms",
            lat.p50,
            "ms",
            format!("median cell time, {} samples", lat.n),
        ),
        tail_metric(&lat, wall * 1e3),
        failed_frac(r.failed, r.attempted),
    ];
    r
}

fn serve_end_to_end(seed: u64, seconds: f64, refs: &Reference) -> Report {
    let jobs = draw_jobs(seed, RATE_CELLS_PER_S, seconds);
    let run = run_open_loop(&SERVICE, &jobs, refs, None);
    let lat = run.latency();
    let setups: Vec<f64> = run.ok_cells().map(|c| c.setup).collect();
    let failed = run.failed_cells();
    Report {
        workload: "serve-open",
        attempted: run.cells.len(),
        failed,
        wrong: run.wrong,
        failures: run.failures.clone(),
        sim_digest: run.sim_digest(),
        summary: format!(
            "{} jobs, {} cells offered at {RATE_CELLS_PER_S} cells/s to {} workers, queue {}",
            jobs.len(),
            run.cells.len(),
            SERVICE.threads,
            SERVICE.queue_capacity
        ),
        metrics: vec![
            metric(
                "events_per_s",
                run.events_per_s(),
                "1/s",
                "sum of cell events over sum of cell wall_seconds",
            ),
            metric(
                "wall_s",
                run.session_s,
                "s",
                format!(
                    "serve session until drained (host speed {:.3})",
                    run.mean_speed
                ),
            ),
            metric(
                "setup_s",
                median(&setups),
                "s",
                format!("median per-cell set-up of {} cells", setups.len()),
            ),
            peak_rss(),
            metric(
                "cells_per_s",
                run.cells_per_s(),
                "1/s",
                "completed cells per stream second",
            ),
            metric(
                "cell_p50_ms",
                lat.p50,
                "ms",
                format!("due time to result line, {} samples", lat.n),
            ),
            tail_metric(&lat, run.session_s * 1e3),
            failed_frac(failed, run.cells.len()),
        ],
    }
}

/// The `_ns` costs of each layer's API on its own, from the micro
/// suite, rescaled by the host speed probed around it.
fn micro_metrics() -> Vec<Metric> {
    let mut probe = host::Probe::default();
    let before = probe.speed();
    let results = micro::run_all();
    let speed = (before + probe.speed()) / 2.0;
    let ns = |bench: &str, per: f64| {
        results
            .iter()
            .find(|r| r.name == bench)
            .map_or(0.0, |r| r.median_ns() as f64 / per * speed)
    };
    vec![
        metric(
            "sim.queue_op_ns",
            ns("event_queue_push_pop_1k", 2000.0),
            "ns",
            "event_queue_push_pop_1k median / 2000 ops",
        ),
        metric(
            "net.send_ns",
            ns("network_send_64node_mesh", 1.0),
            "ns",
            "network_send_64node_mesh median",
        ),
        metric(
            "cache.access_ns",
            ns("cache_read_write_mix", 1.0),
            "ns",
            "cache_read_write_mix median",
        ),
        metric(
            "core.engine_cycle_ns",
            ns("dir_engine_read_write_cycle", 1.0),
            "ns",
            "dir_engine_read_write_cycle median",
        ),
        metric(
            "core.overflow_cycle_ns",
            ns("dir_engine_overflow_cycle", 1.0),
            "ns",
            "dir_engine_overflow_cycle median",
        ),
        metric(
            "machine.lane_sync_ns",
            ns("lane_sync_round_trip_s2", 1.0),
            "ns",
            "lane_sync_round_trip_s2 median",
        ),
    ]
}

/// Simulated counts of one pass (batch) or one stream (serve).
fn count_metrics(s: &MachineStats, events: u64) -> Vec<Metric> {
    let (e, c, n) = (&s.engine, &s.cache, &s.net);
    let accesses = c.hits + c.victim_hits + c.misses;
    let count = |name, v: u64| metric(name, v as f64, "count", "");
    vec![
        count("sim.events", events),
        count("net.messages", n.messages),
        count("net.flits", n.flits),
        count("net.tx_wait_cycles", n.tx_wait_cycles),
        count("cache.accesses", accesses),
        metric(
            "cache.hit_frac",
            (c.hits + c.victim_hits) as f64 / accesses.max(1) as f64,
            "ratio",
            "primary + victim hits over accesses",
        ),
        count("cache.ifetch_misses", c.ifetch_misses),
        count("cache.evictions", c.evictions),
        count("core.requests", e.read_reqs + e.write_reqs),
        count("core.traps", e.traps),
        count("core.trap_cycles", e.trap_cycles),
        count("core.invs_sent", e.invs_sent),
        count("core.busys_sent", e.busys_sent),
        count("core.stale_msgs", e.stale_msgs),
        count("machine.busy_retries", s.busy_retries),
        count("machine.upgrade_races", s.upgrade_races),
        count("machine.watchdog_fires", s.watchdog_fires),
    ]
}

/// Mean seconds per call of each layer the cell runner times, in
/// defining-host seconds.
fn phase_metrics(run: &BatchRun) -> Vec<Metric> {
    let phase = |name, f: fn(&grid::Phases) -> f64, what: &str| {
        metric(name, run.mean_phase(f), "s", format!("mean per {what}"))
    };
    vec![
        phase("apps.build_s", |p| p.build, "registry::build"),
        phase(
            "apps.programs_s",
            |p| p.programs,
            "App::programs + init_memory",
        ),
        phase("apps.verify_s", |p| p.verify, "expected_results check"),
        phase("machine.new_s", |p| p.new, "Machine::new"),
        phase("machine.load_s", |p| p.load, "Machine::load"),
        phase(
            "machine.reset_s",
            |p| p.reset,
            "Machine::reset after the cell",
        ),
    ]
}

fn zero(names: &[&'static str], unit: &'static str) -> Vec<Metric> {
    names
        .iter()
        .map(|n| metric(n, 0.0, unit, "not exercised by this workload"))
        .collect()
}

fn batch_per_layer(workload: &'static str, seed: u64, seconds: f64, refs: &Reference) -> Report {
    let grid = grid_for(workload, seed);
    let cells = grid.cells.len();
    let plain = run_batch(&grid, refs, seconds / 2.0, cells, None);
    let mut tracer = Tracer::default();
    let traced = run_batch(&grid, refs, seconds / 2.0, cells, Some(&mut tracer));
    let mut r = batch_report(workload, &traced, cells);
    r.attempted += plain.attempted;
    r.failed += plain.failures.len();
    r.wrong += plain.wrong;
    r.failures.extend(plain.failures.iter().cloned());
    r.metrics = phase_metrics(&traced);
    r.metrics.extend([
        metric(
            "machine.run_s",
            traced.mean_phase(|p| p.run),
            "s",
            "mean per Machine::run",
        ),
        metric(
            "machine.ns_per_event",
            traced.ns_per_event(),
            "ns",
            "ns per event inside Machine::run",
        ),
    ]);
    r.metrics.extend(count_metrics(
        &traced.pass_stats(),
        traced.events_per_pass(),
    ));
    r.metrics.extend(zero(
        &[
            "serve.queue_wait_p50_ms",
            "serve.queue_wait_p99_ms",
            "serve.cell_run_p50_ms",
        ],
        "ms",
    ));
    r.metrics.extend(zero(&["serve.reuse_frac"], "ratio"));
    r.metrics.extend(zero(&["serve.rejected_jobs"], "count"));
    r.metrics.extend(zero(&["loadgen.late_p99_ms"], "ms"));
    r.metrics.push(metric(
        "trace.overhead_frac",
        traced.wall_s() / plain.wall_s() - 1.0,
        "ratio",
        format!(
            "traced wall_s {:.4} s vs untraced {:.4} s",
            traced.wall_s(),
            plain.wall_s()
        ),
    ));
    r.metrics.extend(micro_metrics());
    println!("{}", tracer.render());
    r
}

fn serve_per_layer(seed: u64, seconds: f64, refs: &Reference) -> Report {
    // Full-length sessions, so the p99s below keep ten samples beyond.
    let jobs = draw_jobs(seed, RATE_CELLS_PER_S, seconds);
    let plain = run_open_loop(&SERVICE, &jobs, refs, None);
    let mut tracer = Tracer::default();
    let run = run_open_loop(&SERVICE, &jobs, refs, Some(&mut tracer));

    // The service hides its layer calls, so every catalogue cell the
    // stream drew is replayed once through the benchmark's own cell
    // runner; simulated counts are weighted by how often it was drawn.
    let mut drawn: BTreeMap<&str, u64> = BTreeMap::new();
    for c in run.ok_cells() {
        *drawn.entry(c.key.as_str()).or_default() += 1;
    }
    let replay = Grid {
        cells: catalogue()
            .into_iter()
            .filter(|c| drawn.contains_key(c.key.as_str()))
            .collect(),
    };
    let replayed = run_batch(&replay, refs, 0.0, replay.cells.len(), Some(&mut tracer));
    let mut stats = MachineStats::default();
    for (key, first) in replayed.keys.iter().zip(&replayed.first) {
        if let Some((_, s)) = first {
            for _ in 0..drawn[key.as_str()] {
                stats.merge(s);
            }
        }
    }

    let ok: Vec<_> = run.ok_cells().collect();
    let ms = |f: &dyn Fn(&open_loop::ServedCell) -> f64| -> Vec<f64> {
        ok.iter().map(|c| f(c) * 1e3).collect()
    };
    let queue = Tail::of(&ms(&|c| c.queue));
    let late = Tail::of(&run.late.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    let events: u64 = ok.iter().map(|c| c.events).sum();
    let run_s: f64 = ok.iter().map(|c| c.run).sum();
    let mut r = Report {
        workload: "serve-open",
        attempted: run.cells.len() + plain.cells.len() + replayed.attempted,
        failed: run.failed_cells() + plain.failed_cells() + replayed.failures.len(),
        wrong: run.wrong + plain.wrong + replayed.wrong,
        failures: [
            run.failures.clone(),
            plain.failures.clone(),
            replayed.failures.clone(),
        ]
        .concat(),
        sim_digest: run.sim_digest(),
        summary: format!("{} jobs, {} cells per session", jobs.len(), run.cells.len()),
        metrics: phase_metrics(&replayed),
    };
    r.metrics.extend([
        metric(
            "machine.run_s",
            run_s / ok.len().max(1) as f64,
            "s",
            "mean served cell wall_seconds",
        ),
        metric(
            "machine.ns_per_event",
            run_s * 1e9 / events.max(1) as f64,
            "ns",
            "served cells: wall_seconds over events",
        ),
    ]);
    r.metrics.extend(count_metrics(&stats, events));
    r.metrics.extend([
        metric(
            "serve.queue_wait_p50_ms",
            queue.p50,
            "ms",
            format!("queue_ms, {} samples", queue.n),
        ),
        metric(
            "serve.queue_wait_p99_ms",
            queue.value,
            "ms",
            format!("queue_ms {}", queue.note()),
        ),
        metric(
            "serve.cell_run_p50_ms",
            median(&ms(&|c| c.run)),
            "ms",
            "median wall_seconds",
        ),
        metric(
            "serve.reuse_frac",
            ok.iter().filter(|c| c.reused).count() as f64 / ok.len().max(1) as f64,
            "ratio",
            "cells run on a reset machine",
        ),
        metric(
            "serve.rejected_jobs",
            run.rejected_jobs as f64,
            "count",
            format!("of {} jobs", jobs.len()),
        ),
        metric(
            "loadgen.late_p99_ms",
            late.value,
            "ms",
            format!("reader lateness {}", late.note()),
        ),
        metric(
            "trace.overhead_frac",
            run.latency().p50 / plain.latency().p50 - 1.0,
            "ratio",
            "traced vs untraced session, median cell latency",
        ),
    ]);
    r.metrics.extend(micro_metrics());
    println!("{}", tracer.render());
    r
}

fn run_workload(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
    refs: &Reference,
) -> Report {
    match (workload, traced) {
        ("serve-open", false) => serve_end_to_end(seed, seconds, refs),
        ("serve-open", true) => serve_per_layer(seed, seconds, refs),
        (w, false) => batch_end_to_end(w, seed, seconds, refs),
        (w, true) => batch_per_layer(w, seed, seconds, refs),
    }
}

/// Prints `reference.txt` for the current commit.
fn record() -> ExitCode {
    println!("# Pinned simulated results: key cycles events stats-digest.");
    println!("# Regenerate with `simbench record > simbench/reference.txt`.");
    let mut cells = Grid::paper_fig4(1).cells;
    for seed in 0..SCALE_PINNED_SEEDS {
        cells.extend(Grid::scale_1024(seed).cells);
    }
    cells.extend(catalogue());
    for cell in &cells {
        match run_cell(cell, None, false) {
            Ok(run) => println!("{}", run.sim.line(&cell.key)),
            Err(e) => {
                eprintln!("record: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The service's capacity: latency of the open-loop stream at rising
/// offered rates, up to the first rate that refuses a job or breaks
/// the p99 latency limit. The highest rate that meets both is the
/// capacity `RATE_CELLS_PER_S` is set against.
fn capacity(seed: u64, seconds: f64) -> ExitCode {
    const P99_LIMIT_MS: f64 = 100.0;
    let refs = Reference::pinned();
    let mut best = None;
    println!("rate cells/s   cells   p50 ms   p99 ms  refused  late p99 ms");
    for rate in (2..=24).map(|k| f64::from(k) * 50.0) {
        let jobs = draw_jobs(seed, rate, seconds);
        let run = run_open_loop(&SERVICE, &jobs, &refs, None);
        let lat = run.latency();
        let late = Tail::of(&run.late.iter().map(|s| s * 1e3).collect::<Vec<_>>());
        println!(
            "{rate:>12} {:>7} {:>8.2} {:>8} {:>8} {:>12.3}",
            run.cells.len(),
            lat.p50,
            format_value(lat.value),
            run.rejected_jobs,
            late.value
        );
        if run.failed_cells() > 0 || lat.value > P99_LIMIT_MS {
            break;
        }
        best = Some(rate);
    }
    match best {
        Some(rate) => {
            println!(
                "capacity {rate} cells/s ({} workers, queue {}, p99 ≤ {P99_LIMIT_MS} ms, nothing refused); 70% is {}; frozen rate {RATE_CELLS_PER_S}",
                SERVICE.threads,
                SERVICE.queue_capacity,
                0.7 * rate
            );
            ExitCode::SUCCESS
        }
        None => {
            println!("no offered rate met the p99 limit of {P99_LIMIT_MS} ms");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: simbench [--workload {}|all] [--seed N] [--seconds S] [--trace 0|1]\n       simbench record\n       simbench capacity [--seed N] [--seconds S]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let command = match args.peek().map(String::as_str) {
        Some("record") | Some("capacity") => args.next(),
        _ => None,
    };
    let (mut workload, mut seed, mut seconds, mut traced) =
        ("all".to_string(), 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = value.clone();
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0)
                .map(|s| seconds = s)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" => {
                    traced = false;
                    true
                }
                "1" => {
                    traced = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            eprintln!("simbench: bad argument {flag} {value}");
            return usage();
        }
    }
    match command.as_deref() {
        Some("record") => return record(),
        Some(_) => return capacity(seed, seconds),
        None => {}
    }
    let selected: Vec<&'static str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else if let Some(w) = WORKLOADS.iter().find(|w| **w == workload) {
        vec![*w]
    } else {
        eprintln!("simbench: unknown workload `{workload}`");
        return usage();
    };

    let refs = Reference::pinned();
    let mut reports = Vec::new();
    for w in &selected {
        // Each workload's peak memory covers that workload only; a
        // single-workload process needs no reset.
        if selected.len() > 1 {
            mem::reset_peak_rss();
        }
        let r = run_workload(w, seed, seconds, traced, &refs);
        r.print(seed, seconds, traced);
        reports.push(r);
    }
    let attempted = reports.iter().map(|r| r.attempted).sum();
    let failed = reports.iter().map(|r| r.failed).sum();
    let correct = reports
        .iter()
        .all(|r| r.wrong == 0 && r.failed < r.attempted);
    let metrics = match reports.as_slice() {
        [only] => only.json_metrics(""),
        all => all
            .iter()
            .flat_map(|r| r.json_metrics(&format!("{}.", r.workload)))
            .collect(),
    };
    println!("{}", result_line(correct, attempted, failed, metrics));
    ExitCode::SUCCESS
}
