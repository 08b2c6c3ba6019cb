//! # perfbench — the raw simulator benchmark
//!
//! Times the simulator's public entry points (`cdnc_core::run`,
//! `run_with_obs`, `checkpoint`, `resume`, `resume_until`) from outside,
//! on one worker thread in one process, over inputs generated from a seed.
//! Nothing inside the program is instrumented for it: end-to-end runs use
//! `Registry::disabled()` except on `observed`, whose armed recorders are
//! the product under test.
//!
//! ## Running
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload consistency --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! mode and prints the per-layer metrics instead, and writes its spans to
//! `perfbench/out/spans-<workload>-seed<n>.json`. Both print human-readable
//! lines (metrics with units, sample counts, `failed_frac` and the
//! workload's `report_digest`) and end with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `cargo test --manifest-path perfbench/Cargo.toml` tests the benchmark's
//! own code.
//!
//! ## Workloads
//!
//! Every seed yields the same strata of cells (see [`cells`]). A run makes
//! passes over all of its cells until `--seconds` have passed (at least
//! two); a cell's time is the median over its passes.
//!
//! - `consistency` — the §4/§5 consistency plane alone: {Push,
//!   Invalidation, TTL} × {unicast, 2-ary multicast} plus Self, Hybrid and
//!   HAT over the live-game update sequence, at 16–160 servers
//!   (log-uniform, four size strata per scheme).
//!   No request plane, faults or churn. The scheduler, `net` sends and the
//!   consistency handlers do nearly all the work and `cdnc-workload` is
//!   never called, so this is the control for cache optimisations and the
//!   main workload for scheduler and `net` optimisations.
//! - `request_plane` — the same schemes with a `WorkloadPlan` in the three
//!   `ext_workload` regimes (base 512@0.9, wide 2048@0.6 cache-hostile, hot
//!   2048@1.2 cache-friendly), 8 servers. Requests, fills and origin
//!   fetches dominate; provider publishes invalidate cached live objects and
//!   the catalog churns beside them, so a cache change that speeds lookups
//!   but slows fill or invalidate shows here, and wide vs hot splits the
//!   miss path from the hit path.
//! - `churn_recovery` — `ext_churn` lifecycle cells (intensity 0.3, and 0.8
//!   with the flash supernode kill) over a fault plan at intensity 0.2,
//!   40 servers ±5 %. Each cell runs uninterrupted, then checkpoints at a
//!   seeded mid-run time and resumes. The survival protocol, the fault
//!   plane, tree repair and the `simcore::ckpt` codec run here and nowhere
//!   else.
//! - `observed` — the consistency generator at 4–10 servers (four size
//!   strata per scheme), through
//!   `run_with_obs` with metrics, tracing, series, timeprof and digest
//!   armed; each cell's span store is exported with
//!   `cdnc_obs::chrome::to_chrome` and serialized. The only workload where
//!   `cdnc-obs` does most of the work; sized so peak RSS stays far below
//!   1 GB.
//!
//! `cdnc-trace`/`cdnc-analysis` (the §3 crawl) and `cdnc-par` are left out:
//! no roadmap item optimises them.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! `setup_s` (input generation plus one warm-up cell per size stratum or
//! regime, median of five), `events_per_s` (`SimReport::events` over summed
//! cell time), `cell_s.p50`/`cell_s.p90` (time of one cell; the sample count
//! is printed beside them), `peak_rss_mb` (`VmHWM`), `allocs_per_event`
//! (allocations counted by the installed `ProfiledAlloc` over the first
//! pass, which repeats exactly for a seed). `failed_frac` is printed and
//! carried by the result line's `failed`/`attempted`.
//!
//! Times are wall times calibrated for host speed by a probe run just
//! before each timing (see [`probe`]); the raw wall-time figures are
//! printed beside them.
//!
//! ## Per-layer metrics (`--trace 1`) and what each should move
//!
//! | layer | metrics | should move | on (control) |
//! |---|---|---|---|
//! | simcore | `simcore.events`, `simcore.sched.ns_per_event` | `events_per_s` | `consistency` (all pay it) |
//! | ckpt | `core.checkpoint_s`, `core.resume_s`, `core.ckpt.roundtrip_s`, `simcore.ckpt.bytes` | `cell_s.p50` | `churn_recovery` (`consistency`) |
//! | net | `net.packets`, `net.km_kb`, `net.send.ns_per_packet` | `events_per_s` | `consistency`, `request_plane` |
//! | net reliability | `net.reliable.{retransmits,abandoned,dup_suppressed}` | guards: must not move | `churn_recovery` |
//! | workload | `workload.{requests,hit_ratio,delayed_ratio}`, `workload.cache.ns_per_request`, `workload.catalog.ns_per_sample` | `events_per_s`, `cell_s.p50` | `request_plane` (`consistency`: no change) |
//! | core | `core.run_s`, `core.build_s`, `core.self_s_est` (computed) | `cell_s.p90`, `events_per_s` | `consistency` |
//! | obs | `obs.overhead.{metrics,tracing,series,timeprof,digest}`, `obs.spans`, `obs.samples`, `obs.export_s`, `obs.export_mb` | `events_per_s`, `peak_rss_mb` | `observed` (`consistency`: 0) |
//! | heap | `heap.peak_mb.<tag>`, `heap.allocs_per_event.<tag>` | `peak_rss_mb`, `allocs_per_event` | where the tag peaks |
//! | bench | `bench.trace_overhead`, `self_s.<layer>` | none | all |
//!
//! Counts (`simcore.events`, `net.*` counts, `workload.requests`,
//! `obs.spans`, `obs.samples`) are totals over the first pass, so they
//! repeat exactly for a seed; times are means per cell; `*.ns_per_*` come
//! from the replays in [`replay`]. With one thread there is no contention:
//! a faster layer saves at most its share of the blocking steps.

mod cells;
mod check;
mod probe;
mod replay;
mod spans;
mod stats;

use cdnc_core::{checkpoint, resume, resume_until, run, run_with_obs, SimReport};
use cdnc_geo::WorldBuilder;
use cdnc_net::Network;
use cdnc_obs::profile::{self, ProfiledAlloc, Subsystem};
use cdnc_obs::{DigestConfig, Registry, DEFAULT_CADENCE_US};
use cdnc_simcore::{stream_tag, SimRng};
use cells::{Call, Cell, Workload};
use check::Tally;
use probe::Probe;
use spans::SpanLog;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: ProfiledAlloc = ProfiledAlloc;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;

/// Fewest passes over the cells an end-to-end run makes, whatever
/// `--seconds` says.
const MIN_PASSES: u64 = 2;

/// The allocator subsystems reported by the `heap.*` metrics.
const HEAP_TAGS: [Subsystem; 6] = [
    Subsystem::Scheduler,
    Subsystem::Net,
    Subsystem::SimCore,
    Subsystem::Trace,
    Subsystem::Series,
    Subsystem::Other,
];

/// The recorders `observed` arms, each also timed alone in traced mode.
const RECORDERS: [&str; 5] = ["metrics", "tracing", "series", "timeprof", "digest"];

/// Layers the traced mode's spans fall into.
const SPAN_LAYERS: [&str; 7] = ["bench", "core", "geo", "net", "obs", "simcore", "workload"];

/// Mixed into a cell's seed for the replays' own inputs, so they never
/// share a stream with the simulation.
const REPLAY_STREAM: u64 = 0x7265_706c;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    ProfiledAlloc::mark_installed();
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut bench = Bench::new(&args);
    let metrics = if args.trace { bench.traced() } else { bench.untraced() };
    bench.print(&metrics);
    ExitCode::SUCCESS
}

/// What `observed` cells measure beyond the report.
#[derive(Debug, Clone, Copy, Default)]
struct ObsOut {
    spans: u64,
    samples: u64,
    digest_events: u64,
    export_s: f64,
    export_bytes: u64,
}

/// One executed cell.
struct Executed {
    /// Wall time of the call(s) that consume the cell.
    wall_s: f64,
    /// Allocations during those calls.
    allocs: u64,
    /// Events processed, summed over every report the calls produced.
    events: u64,
    /// The uninterrupted report (`None` if the call panicked).
    report: Option<SimReport>,
    /// The checkpoint artifact (`churn_recovery`).
    artifact: Option<String>,
    obs: ObsOut,
    verdict: Result<(), String>,
}

/// Runs `f` inside a span named `name` when tracing, bare otherwise.
fn timed<T>(log: &mut Option<&mut SpanLog>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match log {
        Some(log) => log.span(name, |_| f()),
        None => f(),
    }
}

/// An enabled registry with `recorders` (names from [`RECORDERS`]) armed;
/// `metrics` is the bare enabled registry.
fn registry(recorders: &[&str]) -> Registry {
    let reg = Registry::enabled();
    for recorder in recorders {
        match *recorder {
            "tracing" => reg.enable_tracing(),
            "series" => reg.enable_series(DEFAULT_CADENCE_US),
            "timeprof" => reg.enable_timeprof(),
            "digest" => reg.enable_digest(DigestConfig::default()),
            _ => {}
        }
    }
    reg
}

/// Consumes `cell` through its public entry points and checks the output.
fn execute(cell: &Cell, mut log: Option<&mut SpanLog>) -> Executed {
    let cfg = &cell.cfg;
    let allocs0 = profile::total_allocs().unwrap_or(0);
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| match cell.call {
        Call::Run => {
            let r = timed(&mut log, "core.run", || run(cfg));
            (r, None, None, ObsOut::default())
        }
        Call::CheckpointResume { at } => {
            let r = timed(&mut log, "core.run", || run(cfg));
            let art = timed(&mut log, "core.checkpoint", || checkpoint(cfg, at));
            let resumed = timed(&mut log, "core.resume", || resume(cfg, &art));
            (r, Some(art), Some(resumed), ObsOut::default())
        }
        Call::Observed => {
            let reg = registry(&RECORDERS);
            let r = timed(&mut log, "core.run_with_obs", || run_with_obs(cfg, &reg));
            let t = Instant::now();
            let (spans, bytes) = timed(&mut log, "obs.export", || {
                let store = reg.tracer().store();
                let doc = cdnc_obs::to_chrome(&store).to_compact();
                (store.spans.len() as u64, doc.len() as u64)
            });
            let obs = ObsOut {
                spans,
                samples: reg.series_snapshot().total_points,
                digest_events: reg.digest_snapshot().map_or(0, |d| d.events),
                export_s: t.elapsed().as_secs_f64(),
                export_bytes: bytes,
            };
            (r, None, None, obs)
        }
    }));
    let wall_s = started.elapsed().as_secs_f64();
    let allocs = profile::total_allocs().unwrap_or(0).saturating_sub(allocs0);
    match outcome {
        Err(_) => Executed {
            wall_s,
            allocs,
            events: 0,
            report: None,
            artifact: None,
            obs: ObsOut::default(),
            verdict: Err("the entry point panicked".into()),
        },
        Ok((report, artifact, resumed, obs)) => {
            let mut events = report.events;
            let mut verdict = check::check_report(&report);
            if let Some(resumed) = resumed {
                events += resumed.as_ref().map_or(0, |r| r.events);
                verdict = verdict.and_then(|()| match &resumed {
                    Ok(resumed) => check::check_resume(&report, resumed),
                    Err(e) => Err(format!("resume failed: {e}")),
                });
            }
            if cell.call == Call::Observed {
                verdict = verdict
                    .and_then(|()| check::check_observed(obs.spans as usize, obs.digest_events));
            }
            Executed { wall_s, allocs, events, report: Some(report), artifact, obs, verdict }
        }
    }
}

/// Per-layer accumulators of the traced mode.
#[derive(Default)]
struct Layers {
    /// Traced cells.
    cells: u64,
    /// First-pass totals (repeat exactly for a seed).
    counts: BTreeMap<&'static str, f64>,
    /// `(sum of ns × ops, ops)` per replayed operation.
    replay_ns: BTreeMap<&'static str, (f64, f64)>,
    /// `(sum, samples)` of per-cell values.
    means: BTreeMap<&'static str, (f64, f64)>,
    /// `(armed wall, raw wall)` per recorder.
    overhead: BTreeMap<&'static str, (f64, f64)>,
    heap_peak_mb: BTreeMap<&'static str, f64>,
    heap_allocs: BTreeMap<&'static str, f64>,
    heap_events: f64,
    /// Untraced and traced wall of one pass over the cells.
    untraced_s: f64,
    traced_s: f64,
}

impl Layers {
    fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    fn replay(&mut self, name: &'static str, ns: f64, ops: f64) {
        let e = self.replay_ns.entry(name).or_default();
        e.0 += ns * ops;
        e.1 += ops;
    }

    fn sample(&mut self, name: &'static str, v: f64) {
        let e = self.means.entry(name).or_default();
        e.0 += v;
        e.1 += 1.0;
    }

    fn ns(&self, name: &str) -> f64 {
        self.replay_ns.get(name).map_or(0.0, |&(sum, ops)| if ops > 0.0 { sum / ops } else { 0.0 })
    }

    fn mean(&self, name: &str) -> f64 {
        self.means.get(name).map_or(0.0, |&(sum, n)| sum / n)
    }
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    let value = if value.is_finite() { value } else { 0.0 };
    Metric { name: name.into(), value, unit, note: String::new() }
}

struct Bench {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Calibrated and raw set-up time, seconds (medians).
    setup_s: (f64, f64),
    probe: Probe,
    cells: Vec<Cell>,
    tally: Tally,
    digest: u64,
    passes: u64,
}

impl Bench {
    /// Generates the cells and warms up, [`SETUP_REPS`] times.
    fn new(args: &Args) -> Bench {
        let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
        let mut cells = Vec::new();
        let mut tally = Tally::default();
        let mut probe = Probe::new();
        for _ in 0..SETUP_REPS {
            let probe_s = probe.time_s();
            let t = Instant::now();
            cells = cells::cells(args.workload, args.seed);
            // Warm-up: the first cell of every size stratum or regime (each
            // opens with the same scheme), so code, allocator arenas and
            // page tables are in use before the first timed cell.
            let first_scheme = cells[0].cfg.scheme;
            for cell in cells.iter().filter(|c| c.cfg.scheme == first_scheme) {
                tally.record(&cell.label, &execute(cell, None).verdict);
            }
            raw_setups.push(t.elapsed().as_secs_f64());
            setups.push(Probe::calibrate(t.elapsed().as_secs_f64(), probe_s));
        }
        Bench {
            workload: args.workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            setup_s: (stats::median(&setups), stats::median(&raw_setups)),
            probe,
            cells,
            tally,
            digest: 0,
            passes: 0,
        }
    }

    /// Runs passes over every cell until `--seconds` have passed (and at
    /// least `min_passes`); `each` sees every execution with its cell index
    /// and pass number.
    fn passes(&mut self, min_passes: u64, mut each: impl FnMut(&mut Bench, usize, &Cell, u64)) {
        let started = Instant::now();
        let cells = std::mem::take(&mut self.cells);
        while self.passes < min_passes || started.elapsed().as_secs_f64() < self.seconds {
            for (i, cell) in cells.iter().enumerate() {
                each(self, i, cell, self.passes);
            }
            self.passes += 1;
        }
        self.cells = cells;
    }

    /// Counts a cell's verdict; first-pass reports fold into the digest.
    fn record(&mut self, cell: &Cell, ex: &Executed, pass: u64) {
        self.tally.record(&cell.label, &ex.verdict);
        if pass == 0 {
            let h = ex.report.as_ref().map_or(0, check::report_hash);
            self.digest = check::fold(self.digest, h);
        }
    }

    /// The end-to-end run. Each execution is timed right after a probe
    /// and calibrated by it (see [`probe`]); a cell's time is the median of
    /// its calibrated passes. Raw wall-time figures are printed beside.
    fn untraced(&mut self) -> Vec<Metric> {
        let n = self.cells.len();
        let (mut cal, mut raw) = (vec![Vec::new(); n], vec![Vec::new(); n]);
        let (mut events, mut allocs, mut probes) = (vec![0u64; n], 0u64, Vec::new());
        self.passes(MIN_PASSES, |bench, i, cell, pass| {
            let probe_s = bench.probe.time_s();
            let ex = execute(cell, None);
            cal[i].push(Probe::calibrate(ex.wall_s, probe_s));
            raw[i].push(ex.wall_s);
            probes.push(probe_s);
            if pass == 0 {
                events[i] = ex.events;
                allocs += ex.allocs;
            }
            bench.record(cell, &ex, pass);
        });
        let events: u64 = events.iter().sum();
        let cell_s =
            |times: &[Vec<f64>]| -> Vec<f64> { times.iter().map(|t| stats::median(t)).collect() };
        let (cal, raw) = (cell_s(&cal), cell_s(&raw));
        let p50 = stats::percentile(&cal, 50.0).expect("at least one cell");
        let p90 = stats::percentile(&cal, 90.0).expect("at least one cell");
        let rate = |times: &[f64]| events as f64 / times.iter().sum::<f64>();
        let raw_p90 = stats::percentile(&raw, 90.0).map_or(0.0, |p| p.value);
        let mut out = vec![
            metric("setup_s", self.setup_s.0, "s"),
            metric("events_per_s", rate(&cal), "1/s"),
            metric("cell_s.p50", p50.value, "s"),
            metric("cell_s.p90", p90.value, "s"),
            metric("peak_rss_mb", stats::peak_rss_mb(), "MB"),
            metric("allocs_per_event", allocs as f64 / events.max(1) as f64, "allocs/event"),
        ];
        out[0].note = format!("median of {SETUP_REPS}; raw {:.6}", self.setup_s.1);
        out[1].note = format!(
            "raw {:.0}; probe median {:.6} s, nominal {}",
            rate(&raw),
            stats::median(&probes),
            probe::NOMINAL_S
        );
        let passes = format!("n={} cells, median of {} passes", p50.samples, self.passes);
        out[2].note = format!("{passes}; raw {:.6}", stats::median(&raw));
        out[3].note = format!("{passes}; raw {raw_p90:.6}");
        out
    }

    /// The traced run: one untraced reference pass, then traced passes.
    fn traced(&mut self) -> Vec<Metric> {
        let mut layers = Layers::default();
        for cell in std::mem::take(&mut self.cells) {
            let ex = execute(&cell, None);
            layers.untraced_s += ex.wall_s;
            self.record(&cell, &ex, 0);
            self.cells.push(cell);
        }
        let mut log = SpanLog::default();
        self.passes(1, |bench, _, cell, pass| {
            let t = Instant::now();
            let verdict =
                log.span("bench.cell", |log| traced_cell(cell, log, &mut layers, pass == 0));
            if pass == 0 {
                layers.traced_s += t.elapsed().as_secs_f64();
            }
            bench.tally.record(&cell.label, &verdict);
            layers.cells += 1;
        });
        let path = write_spans(&log, self.workload, self.seed);
        println!("spans: {} written to {path}", log.spans().len());
        layer_metrics(&layers, &log)
    }

    fn print(&self, metrics: &[Metric]) {
        println!(
            "perfbench workload={} seed={} mode={} passes={} cells run={} failed={} failed_frac={}",
            self.workload.name(),
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            self.passes,
            self.tally.attempted,
            self.tally.failed,
            self.tally.failed_frac(),
        );
        println!("report_digest={:016x}", self.digest);
        for m in metrics {
            println!("  {:<34} {:>16.6} {:<12} {}", m.name, m.value, m.unit, m.note);
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted.max(1),
            self.tally.failed,
            body.join(", ")
        );
    }
}

/// Where the traced run's spans go: beside the benchmark's sources.
fn write_spans(log: &SpanLog, workload: Workload, seed: u64) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{seed}.json", workload.name()));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, log.to_json()));
    match written {
        Ok(()) => path.display().to_string(),
        Err(e) => {
            eprintln!("perfbench: could not write spans to {}: {e}", path.display());
            "nowhere".into()
        }
    }
}

/// Mean scheduler queue depth and per-tag heap use of one profiled run of
/// the cell's own configuration (registry counters + tagged allocator).
fn profiled_run(cell: &Cell, layers: &mut Layers) -> f64 {
    let reg = if cell.call == Call::Observed { registry(&RECORDERS) } else { Registry::enabled() };
    reg.enable_profiling(Default::default());
    profile::set_enabled(true);
    profile::reset_window_peaks();
    let base = profile::snapshot();
    let report = catch_unwind(AssertUnwindSafe(|| run_with_obs(&cell.cfg, &reg)));
    let window = profile::snapshot().window_since(&base);
    profile::set_enabled(false);
    let Ok(report) = report else { return 0.0 };
    for tag in HEAP_TAGS {
        let (now, then) = (window.subsystem(tag), base.subsystem(tag));
        let peak_mb = (now.peak_live_bytes - then.live_bytes).max(0) as f64 / (1024.0 * 1024.0);
        let slot = layers.heap_peak_mb.entry(tag.name()).or_default();
        *slot = slot.max(peak_mb);
        *layers.heap_allocs.entry(tag.name()).or_default() += now.allocs as f64;
    }
    layers.heap_events += report.events as f64;
    reg.snapshot().histogram("sched_queue_depth_at_pop").and_then(|h| h.mean()).unwrap_or(0.0)
}

/// One traced cell: the cell's own calls, then the layer replays, each in
/// its span. Returns the cell's verdict.
fn traced_cell(
    cell: &Cell,
    log: &mut SpanLog,
    layers: &mut Layers,
    first: bool,
) -> Result<(), String> {
    let cfg = &cell.cfg;
    let ex = execute(cell, Some(log));
    let Some(report) = ex.report.as_ref() else { return ex.verdict };
    let mut verdict = ex.verdict.clone();
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ REPLAY_STREAM);

    let mut net = log.span("core.build", |log| {
        let world = log.span("geo.world", |_| {
            WorldBuilder::new(cfg.servers).seed(cfg.seed ^ stream_tag::WORLD).build()
        });
        let net = log.span("net.from_world", |_| {
            Network::from_world(&world, cfg.network, cfg.seed ^ stream_tag::NET)
        });
        log.span("core.topology", |_| {
            cdnc_core::Topology::build(&cfg.scheme, &net, &mut SimRng::seed_from_u64(cfg.seed))
        });
        net
    });
    let depth = log.span("bench.profiled_run", |_| profiled_run(cell, layers));

    let sched_ops = (report.events as usize).min(replay::MAX_OPS);
    let sched_ns = log
        .span("simcore.sched", |_| replay::scheduler(depth.round() as usize, sched_ops, &mut rng));
    layers.replay("sched", sched_ns, sched_ops as f64);
    let packets = report.traffic.total_messages();
    let net_ns = log.span("net.send", |_| replay::net_send(cfg, report, &mut net, &mut rng));
    layers.replay("net", net_ns, (packets as usize).min(replay::MAX_OPS) as f64);
    let requests = report.workload.requests;
    let mut request_ns = 0.0;
    if let Some(plan) = &cfg.workload {
        let cost = log.span("workload.cache", |_| replay::workload(cfg, plan, &mut rng));
        layers.replay("cache", cost.cache_ns_per_request, replay::MAX_OPS as f64);
        layers.replay("catalog", cost.catalog_ns_per_sample, replay::MAX_OPS as f64);
        request_ns = cost.cache_ns_per_request + cost.catalog_ns_per_sample;
    }

    if let (Call::CheckpointResume { at }, Some(art)) = (cell.call, &ex.artifact) {
        let again = log.span("core.resume_until", |_| resume_until(cfg, art, at));
        verdict = verdict.and_then(|()| match again {
            Ok(again) if &again == art => Ok(()),
            Ok(_) => Err("resume_until at the checkpoint time re-serialized differently".into()),
            Err(e) => Err(format!("resume_until failed: {e}")),
        });
        layers.sample("ckpt.bytes", art.len() as f64);
    }

    let mut run_s = None;
    if cell.call == Call::Observed {
        let raw_t = Instant::now();
        log.span("core.run", |_| run(cfg));
        let raw_s = raw_t.elapsed().as_secs_f64();
        run_s = Some(raw_s);
        for recorder in RECORDERS {
            let reg = registry(&[recorder]);
            let t = Instant::now();
            log.span("obs.overhead_run", |_| run_with_obs(cfg, &reg));
            let e = layers.overhead.entry(recorder).or_default();
            e.0 += t.elapsed().as_secs_f64();
            e.1 += raw_s;
        }
        layers.sample("obs.export_s", ex.obs.export_s);
        layers.sample("obs.export_mb", ex.obs.export_bytes as f64 / (1024.0 * 1024.0));
    }

    // Per-cell means come from the cell's own spans (the last ones named).
    let last = |name: &str| {
        log.spans().iter().rev().find(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e9)
    };
    let run_s = run_s.or_else(|| last("core.run")).unwrap_or(0.0);
    layers.sample("core.run_s", run_s);
    layers.sample("core.build_s", last("core.build").unwrap_or(0.0));
    if let Call::CheckpointResume { .. } = cell.call {
        layers.sample("core.checkpoint_s", last("core.checkpoint").unwrap_or(0.0));
        layers.sample("core.resume_s", last("core.resume").unwrap_or(0.0));
        layers.sample("core.ckpt.roundtrip_s", last("core.resume_until").unwrap_or(0.0));
    }
    let replayed_ns =
        sched_ns * report.events as f64 + net_ns * packets as f64 + request_ns * requests as f64;
    layers.sample("core.self_s_est", run_s - replayed_ns / 1e9);

    if first {
        layers.count("simcore.events", report.events as f64);
        layers.count("net.packets", packets as f64);
        layers.count("net.km_kb", report.traffic.km_kb());
        layers.count("net.reliable.retransmits", report.retransmits as f64);
        layers.count("net.reliable.abandoned", report.abandoned_deliveries as f64);
        layers.count("net.reliable.dup_suppressed", report.duplicates_suppressed as f64);
        layers.count("workload.requests", requests as f64);
        layers.count("workload.hits", report.workload.hits as f64);
        layers.count("workload.delayed_hits", report.workload.delayed_hits as f64);
        layers.count("obs.spans", ex.obs.spans as f64);
        layers.count("obs.samples", ex.obs.samples as f64);
    }
    verdict
}

/// The per-layer metrics from the traced run's accumulators and spans.
fn layer_metrics(l: &Layers, log: &SpanLog) -> Vec<Metric> {
    let count = |name: &str| l.counts.get(name).copied().unwrap_or(0.0);
    let requests = count("workload.requests");
    let ratio = |n: f64| if requests > 0.0 { n / requests } else { 0.0 };
    let mut out = vec![
        metric("simcore.events", count("simcore.events"), "count"),
        metric("simcore.sched.ns_per_event", l.ns("sched"), "ns"),
        metric("core.checkpoint_s", l.mean("core.checkpoint_s"), "s"),
        metric("core.resume_s", l.mean("core.resume_s"), "s"),
        metric("core.ckpt.roundtrip_s", l.mean("core.ckpt.roundtrip_s"), "s"),
        metric("simcore.ckpt.bytes", l.mean("ckpt.bytes"), "bytes"),
        metric("net.packets", count("net.packets"), "count"),
        metric("net.km_kb", count("net.km_kb"), "km.KB"),
        metric("net.send.ns_per_packet", l.ns("net"), "ns"),
        metric("net.reliable.retransmits", count("net.reliable.retransmits"), "count"),
        metric("net.reliable.abandoned", count("net.reliable.abandoned"), "count"),
        metric("net.reliable.dup_suppressed", count("net.reliable.dup_suppressed"), "count"),
        metric("workload.requests", requests, "count"),
        metric("workload.hit_ratio", ratio(count("workload.hits")), "ratio"),
        metric("workload.delayed_ratio", ratio(count("workload.delayed_hits")), "ratio"),
        metric("workload.cache.ns_per_request", l.ns("cache"), "ns"),
        metric("workload.catalog.ns_per_sample", l.ns("catalog"), "ns"),
        metric("core.run_s", l.mean("core.run_s"), "s"),
        metric("core.build_s", l.mean("core.build_s"), "s"),
        metric("core.self_s_est", l.mean("core.self_s_est"), "s"),
    ];
    out.last_mut().expect("non-empty").note = "computed: run_s minus replayed layer costs".into();
    for recorder in RECORDERS {
        let (armed, raw) = l.overhead.get(recorder).copied().unwrap_or_default();
        let name = format!("obs.overhead.{recorder}");
        out.push(metric(name, if raw > 0.0 { armed / raw } else { 0.0 }, "ratio"));
    }
    out.push(metric("obs.spans", count("obs.spans"), "count"));
    out.push(metric("obs.samples", count("obs.samples"), "count"));
    out.push(metric("obs.export_s", l.mean("obs.export_s"), "s"));
    out.push(metric("obs.export_mb", l.mean("obs.export_mb"), "MB"));
    for tag in HEAP_TAGS {
        let peak = l.heap_peak_mb.get(tag.name()).copied().unwrap_or(0.0);
        let allocs = l.heap_allocs.get(tag.name()).copied().unwrap_or(0.0);
        out.push(metric(format!("heap.peak_mb.{}", tag.name()), peak, "MB"));
        out.push(metric(
            format!("heap.allocs_per_event.{}", tag.name()),
            if l.heap_events > 0.0 { allocs / l.heap_events } else { 0.0 },
            "allocs/event",
        ));
    }
    let overhead = if l.untraced_s > 0.0 { l.traced_s / l.untraced_s } else { 0.0 };
    out.push(metric("bench.trace_overhead", overhead, "ratio"));
    let self_times = log.self_time_by_layer();
    for layer in SPAN_LAYERS {
        let s = self_times.get(layer).copied().unwrap_or(0.0) / (l.cells.max(1) as f64);
        out.push(metric(format!("self_s.{layer}"), s, "s"));
    }
    out
}
