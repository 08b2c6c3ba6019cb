//! Integration: determinism, end to end. Every stochastic component of the
//! workspace is a pure function of its seed, and `--jobs n` and every
//! recorder are observation-only: the results and the artifacts are the
//! same bits at any worker count, armed or not.
//!
//! The jobs contract is one table of rows `(run, recorders, jobs)`. For
//! each run (a smoke-scale figure or crawl, per seed replicate) a row runs
//! it plain once, then armed through [`ObsSettings::registry`] at every
//! listed worker count, and requires:
//!
//! - the armed result equals the plain one;
//! - every armed recorder actually saw the run;
//! - the artifact directories written by the CLI's own writers are
//!   [`diff_artifact_dirs`]-identical to the first worker count's, the
//!   comparator `experiments obs-diff` uses;
//! - span paths with their entry counts and the causal trace store (kept
//!   in memory: a figure's Chrome export runs to hundreds of megabytes)
//!   are identical too.
//!
//! This binary installs the counting allocator, as the `experiments`
//! binary does, so the profile row attributes real allocations.

use cdnc_core::{run, Scheme, SimConfig};
use cdnc_experiments::divergence::{self, Outcome};
use cdnc_experiments::obs_out::{
    diff_artifact_dirs, write_figure_artifact, write_figure_digest, write_figure_series,
    write_figure_workload, ObsSettings,
};
use cdnc_experiments::profile_out::write_profile_artifact;
use cdnc_experiments::timeprof_out::write_timeprof_artifact;
use cdnc_experiments::{build_trace_ctx, run_figure, run_figure_ctx, FigureReport, RunCtx, Scale};
use cdnc_geo::WorldBuilder;
use cdnc_obs::profile::{self, ProfileSnapshot, ProfiledAlloc, Subsystem};
use cdnc_obs::{parse, Json, Level, Registry, SpanStore};
use cdnc_par::Pool;
use cdnc_simcore::SimRng;
use cdnc_trace::{crawl, CrawlConfig, Trace, UpdateSequence};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

#[global_allocator]
static ALLOC: ProfiledAlloc = ProfiledAlloc;

/// Allocation attribution is process-global: while a test has it on,
/// every allocation anywhere in the binary lands in its window. Tests
/// that turn it on hold the write side; every other test holds the read
/// side, so they still run in parallel with each other.
static ATTRIBUTION: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    ATTRIBUTION.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn exclusive() -> RwLockWriteGuard<'static, ()> {
    ATTRIBUTION.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------------
// The table.
// ---------------------------------------------------------------------------

/// What a row runs.
#[derive(Debug, Clone, Copy)]
enum Run {
    /// A figure at smoke scale.
    Figure(&'static str),
    /// The smoke-scale measurement crawl.
    Crawl,
}

/// A recorder a row arms on top of metrics.
#[derive(Debug, Clone, Copy)]
enum Recorder {
    Events,
    Tracing,
    Series,
    Timeprof,
    Profile,
    Digest,
}

/// One row: every run × replicate runs plain once and armed with
/// `recorders` at each of `jobs` (the first is the reference).
struct Row {
    /// Names the row's scratch directory.
    name: &'static str,
    runs: &'static [Run],
    replicates: &'static [u64],
    recorders: &'static [Recorder],
    jobs: &'static [usize],
}

use Recorder::*;

/// Worker counts: serial, even splits, and a ragged prime.
const JOBS: &[usize] = &[1, 2, 4];
const JOBS_RAGGED: &[usize] = &[1, 2, 4, 7];

const FIG14_DIGEST: Row = Row {
    name: "fig14-digest",
    runs: &[Run::Figure("fig14")],
    replicates: &[0],
    recorders: &[Digest],
    jobs: JOBS,
};
const FIG17_TRACED: Row = Row {
    name: "fig17-traced",
    runs: &[Run::Figure("fig17")],
    replicates: &[0],
    recorders: &[Events, Tracing],
    jobs: JOBS_RAGGED,
};
const FIG17_DERIVED: Row = Row {
    name: "fig17-derived",
    runs: &[Run::Figure("fig17")],
    replicates: &[1, 2],
    recorders: &[Events, Tracing],
    jobs: JOBS_RAGGED,
};
const FIG17_SERIES: Row = Row {
    name: "fig17-series",
    runs: &[Run::Figure("fig17")],
    replicates: &[0],
    recorders: &[Series],
    jobs: JOBS,
};
const FIG17_TIMEPROF: Row = Row {
    name: "fig17-timeprof",
    runs: &[Run::Figure("fig17")],
    replicates: &[0],
    recorders: &[Timeprof],
    jobs: JOBS,
};
const FIG20_PROFILE: Row = Row {
    name: "fig20-profile",
    runs: &[Run::Figure("fig20")],
    replicates: &[0],
    recorders: &[Profile],
    jobs: JOBS,
};
const ARMED_VS_PLAIN: Row = Row {
    name: "armed",
    runs: &[Run::Figure("fig24"), Run::Figure("ext_failures")],
    replicates: &[0],
    recorders: &[Events, Tracing, Series],
    jobs: &[1],
};
const FIG20_SERIES: Row = Row {
    name: "fig20-series",
    runs: &[Run::Figure("fig20")],
    replicates: &[0],
    recorders: &[Events, Tracing, Series],
    jobs: &[1, 2],
};
const EXT_WORKLOAD_SERIES: Row = Row {
    name: "ext-workload",
    runs: &[Run::Figure("ext_workload")],
    replicates: &[0],
    recorders: &[Series, Digest],
    jobs: JOBS,
};
const CRAWL_CANONICAL: Row = Row {
    name: "crawl",
    runs: &[Run::Crawl],
    replicates: &[0],
    recorders: &[Events, Tracing],
    jobs: JOBS_RAGGED,
};
const CRAWL_DERIVED: Row = Row {
    name: "crawl-derived",
    runs: &[Run::Crawl],
    replicates: &[1, 2],
    recorders: &[Events, Tracing],
    jobs: JOBS_RAGGED,
};

// ---------------------------------------------------------------------------
// The row runner.
// ---------------------------------------------------------------------------

/// A run's result: a figure report or a crawl trace.
#[derive(Debug, PartialEq)]
enum Output {
    Figure(FigureReport),
    Crawl(Trace),
}

impl Run {
    fn id(self) -> &'static str {
        match self {
            Run::Figure(id) => id,
            Run::Crawl => "crawl",
        }
    }

    fn execute(self, replicate: u64, jobs: usize, reg: &Registry) -> Output {
        let ctx = RunCtx::with_pool(Scale::Smoke, Pool::new(jobs)).replicate(replicate);
        match self {
            Run::Figure(id) => {
                Output::Figure(run_figure_ctx(id, ctx, None, reg).expect("known id"))
            }
            Run::Crawl => Output::Crawl(build_trace_ctx(ctx, reg)),
        }
    }
}

/// One armed run, as handed to a row's extra checks.
struct Armed<'a> {
    jobs: usize,
    output: &'a Output,
    reg: &'a Registry,
    dir: &'a Path,
}

/// A directory tree removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("cdnc-determinism-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The settings a row arms, writing artifacts under `dir`.
fn settings(recorders: &[Recorder], dir: PathBuf) -> ObsSettings {
    let mut obs = ObsSettings { enabled: true, dir, ..ObsSettings::off() };
    for recorder in recorders {
        match recorder {
            Events => obs.log_level = Some(Level::Debug),
            Tracing => obs.trace = true,
            Series => obs.series = true,
            Timeprof => obs.timeprof = true,
            Profile => obs.profile = true,
            Digest => obs.digest = true,
        }
    }
    obs
}

/// Runs `run` under `obs`'s registry, bracketed in an allocation
/// attribution window when profiling is armed (as `experiments profile`
/// does).
fn run_armed(
    run: Run,
    replicate: u64,
    jobs: usize,
    obs: &ObsSettings,
) -> (Output, Registry, Option<ProfileSnapshot>) {
    let reg = obs.registry();
    let base = obs.profile.then(|| {
        profile::set_enabled(true);
        profile::reset_window_peaks();
        profile::snapshot()
    });
    let output = run.execute(replicate, jobs, &reg);
    let window = base.map(|base| {
        profile::set_enabled(false);
        profile::snapshot().window_since(&base)
    });
    (output, reg, window)
}

/// Writes what `obs` armed with the CLI's writers and checks the run
/// artifact is well-formed JSON that saw the run.
fn write_artifacts(
    obs: &ObsSettings,
    id: &'static str,
    output: &Output,
    reg: &Registry,
    window: Option<&ProfileSnapshot>,
) {
    let dir = &obs.dir;
    if let Some(window) = window {
        // Like `experiments profile`, write only the profile artifact: the
        // run's memory-spike counter follows allocator timing.
        write_profile_artifact(dir, id, Scale::Smoke, window, reg, 0.0).unwrap();
        return;
    }
    let crawl_report;
    let (report, work_counter) = match output {
        Output::Figure(report) => (report, "sched_events_processed"),
        Output::Crawl(_) => {
            crawl_report = FigureReport::new("crawl", "measurement crawl");
            (&crawl_report, "crawl_server_polls")
        }
    };
    let path = write_figure_artifact(dir, id, Scale::Smoke, report, 0.0, reg).unwrap();
    let doc = parse(&std::fs::read_to_string(path).unwrap()).expect("artifact is valid JSON");
    assert_eq!(doc.get("run_id").and_then(Json::as_str), Some(id));
    assert!(doc.get("phases").is_some(), "{id}: artifact carries phase timings");
    let work = doc
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(work_counter))
        .and_then(Json::as_f64);
    assert!(work.is_some_and(|n| n > 0.0), "{id}: the registry observed the run");
    write_figure_workload(dir, id, report).unwrap();
    write_figure_series(dir, id, reg).unwrap();
    write_figure_digest(dir, id, Scale::Smoke, reg).unwrap();
    if obs.timeprof {
        write_timeprof_artifact(dir, id, Scale::Smoke, reg, 0.0).unwrap();
    }
}

/// Asserts every armed recorder recorded something.
fn assert_recorded(obs: &ObsSettings, run: Run, reg: &Registry) {
    let id = run.id();
    // The crawl records metrics and phase spans only: no events, no traces.
    let simulated = matches!(run, Run::Figure(_));
    if obs.trace && simulated {
        assert!(!reg.tracer().store().spans.is_empty(), "{id}: the tracer recorded the run");
    }
    if obs.series {
        assert!(reg.series_snapshot().total_points > 0, "{id}: the sampler recorded the run");
    }
    if obs.digest {
        let digest = reg.digest_snapshot().expect("digest armed");
        assert!(digest.events > 0 && !digest.segments.is_empty(), "{id}: the digest folded");
    }
    if obs.timeprof {
        let tp = reg.timeprof_snapshot().expect("timeprof armed");
        assert!(!tp.frames.is_empty(), "{id}: the time profiler recorded frames");
    }
}

/// Span paths with their entry counts (durations are wall clock).
fn phases(reg: &Registry) -> Vec<(String, u64)> {
    reg.snapshot().spans.into_iter().map(|(path, t)| (path, t.count)).collect()
}

/// Whether an `obs-diff` line is the profile artifact differing only in
/// `attribution` — the one section allowed to drift across worker counts
/// (see [`assert_attribution_close`]).
fn only_attribution_drift(line: &str, id: &str) -> bool {
    let head = line.lines().next().unwrap_or_default();
    head.strip_prefix(&format!(
        "{id}.profile.json: contents differ (differing fields per key: attribution: "
    ))
    .is_some_and(|rest| rest.bytes().all(|b| b.is_ascii_digit()))
}

/// Allocation attribution is fed by the process-global allocator: the
/// workload dominates, but per-thread warm-up inside scopes adds a small
/// jitter across worker counts. Every named bucket holds to 0.5 %.
fn assert_attribution_close(a: &Path, b: &Path, id: &str) {
    let load = |dir: &Path| {
        let text = std::fs::read_to_string(dir.join(format!("{id}.profile.json"))).unwrap();
        parse(&text).unwrap().get("attribution").cloned().expect("attribution section")
    };
    let (a, b) = (load(a), load(b));
    let Json::Obj(buckets) = &a else { panic!("attribution is an object") };
    assert!(!buckets.is_empty());
    for (name, stats) in buckets {
        for key in ["allocs", "bytes"] {
            let x = stats.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            let y = b.get(name).and_then(|s| s.get(key)).and_then(Json::as_f64).unwrap_or(0.0);
            assert!(
                (x - y).abs() <= 0.005 * x.max(y).max(1.0),
                "{id}: attribution {name}.{key} drifted: {x} vs {y}"
            );
        }
    }
}

/// What the first worker count of a run leaves for the others to match.
struct Reference {
    dir: PathBuf,
    /// Span paths with their entry counts (durations are wall clock).
    spans: Vec<(String, u64)>,
    store: SpanStore,
}

/// Runs one row (see the module docs), calling `extra` on every armed
/// run. Returns the artifact tree, laid out as
/// `<run>-r<replicate>/jobs<n>/`.
fn check(row: &Row, mut extra: impl FnMut(Armed<'_>)) -> Scratch {
    let scratch = Scratch::new(row.name);
    for &run in row.runs {
        let id = run.id();
        for &replicate in row.replicates {
            let label = format!("{id} replicate {replicate}");
            let plain = run.execute(replicate, 1, &Registry::disabled());
            let mut reference: Option<Reference> = None;
            for &jobs in row.jobs {
                let dir = scratch.0.join(format!("{id}-r{replicate}")).join(format!("jobs{jobs}"));
                let obs = settings(row.recorders, dir.clone());
                let (output, reg, window) = run_armed(run, replicate, jobs, &obs);
                assert_eq!(plain, output, "{label}: armed at --jobs {jobs} changed the result");
                assert_recorded(&obs, run, &reg);
                write_artifacts(&obs, id, &output, &reg, window.as_ref());
                extra(Armed { jobs, output: &output, reg: &reg, dir: &dir });
                let (spans, store) = (phases(&reg), reg.tracer().store());
                let Some(first) = &reference else {
                    reference = Some(Reference { dir, spans, store });
                    continue;
                };
                let drift: Vec<String> = diff_artifact_dirs(&first.dir, &dir)
                    .unwrap()
                    .into_iter()
                    .filter(|line| !(obs.profile && only_attribution_drift(line, id)))
                    .collect();
                assert!(drift.is_empty(), "{label}: --jobs {jobs} artifact drift: {drift:#?}");
                if obs.profile {
                    assert_attribution_close(&first.dir, &dir, id);
                }
                assert_eq!(first.spans, spans, "{label}: --jobs {jobs} span paths and counts");
                assert!(first.store == store, "{label}: --jobs {jobs} causal trace store");
            }
        }
    }
    scratch
}

// ---------------------------------------------------------------------------
// One test per row, plus each row's own checks, and the single armed runs
// that check what a recorder wrote.
// ---------------------------------------------------------------------------

/// fig14's smoke-scale digest chain and event count, recorded when this
/// row was introduced. Every event of every simulation folds into the
/// chain in absorb order, so any drift in simulator behaviour or in the
/// shard/absorb path changes it — including drift that is identical at
/// every worker count. Update both only for an intended behaviour change.
const FIG14_CHAIN: &str = "0x53d742f7c022f78c";
const FIG14_EVENTS: f64 = 1_455_060.0;

/// The settings the divergence bisection re-runs under, keeping its
/// trace output inside `scratch`.
fn bisect_settings(scratch: &Scratch) -> ObsSettings {
    ObsSettings { trace_dir: Some(scratch.0.join("traces")), ..ObsSettings::off() }
}

#[test]
fn fig14_digest_is_jobs_invariant_and_pinned() {
    let _g = shared();
    let tree = check(&FIG14_DIGEST, |_| {});
    let digest_at = |jobs: usize| tree.0.join(format!("fig14-r0/jobs{jobs}/fig14.digest.json"));
    let doc = parse(&std::fs::read_to_string(digest_at(1)).unwrap()).unwrap();
    assert_eq!(doc.get("chain").and_then(Json::as_str), Some(FIG14_CHAIN), "pinned chain");
    assert_eq!(doc.get("events").and_then(Json::as_f64), Some(FIG14_EVENTS), "pinned count");
    assert!(
        matches!(
            divergence::run(&digest_at(1), &digest_at(4), &bisect_settings(&tree)),
            Ok(Outcome::Identical)
        ),
        "identical scenarios must compare identical"
    );
}

#[test]
fn injected_perturbation_localizes_to_its_exact_index() {
    let _g = shared();
    const PERTURB: u64 = 137;
    let scratch = Scratch::new("perturb");
    let write = |name: &str, perturb: Option<u64>| {
        let mut obs = settings(&[Digest], scratch.0.join(name));
        obs.digest_perturb = perturb;
        let reg = obs.registry();
        run_figure_ctx("fig14", RunCtx::new(Scale::Smoke), None, &reg).expect("known id");
        write_figure_digest(&obs.dir, "fig14", Scale::Smoke, &reg).unwrap().expect("digest armed")
    };
    let (clean, perturbed) = (write("clean", None), write("perturbed", Some(PERTURB)));
    match divergence::run(&clean, &perturbed, &bisect_settings(&scratch)).expect("bisect succeeds")
    {
        Outcome::Diverged(loc) => {
            // The perturbation XORs the fold word at one local index of
            // every segment, so segment 0 diverges first, at that index.
            assert_eq!(loc.segment, 0, "first diverging segment");
            assert_eq!(loc.local, PERTURB, "divergence must localize to the perturbed index");
            assert_eq!(loc.global, PERTURB, "segment 0 local index is the global index");
            assert!(!loc.rerun_mismatch, "re-runs must reproduce their recorded chains");
            let rendered = loc.render();
            assert!(
                rendered.contains(&format!("first diverging event: global index {PERTURB}")),
                "headline line missing:\n{rendered}"
            );
        }
        Outcome::Identical => panic!("a perturbed run must diverge from a clean one"),
    }
}

#[test]
fn tracing_runs_are_deterministic() {
    let _g = shared();
    check(&FIG17_TRACED, |_| {});
}

#[test]
fn fig17_is_jobs_invariant_on_derived_replicates() {
    let _g = shared();
    check(&FIG17_DERIVED, |_| {});
}

#[test]
fn fig17_series_is_jobs_invariant() {
    let _g = shared();
    check(&FIG17_SERIES, |armed| {
        let series = armed.reg.series_snapshot();
        assert!(
            series
                .get("sched_queue_depth", cdnc_obs::SeriesKind::Gauge)
                .is_some_and(|e| !e.points.is_empty()),
            "queue depth must be sampled"
        );
    });
}

#[test]
fn fig17_timeprof_is_jobs_invariant() {
    let _g = shared();
    check(&FIG17_TIMEPROF, |armed| {
        let snap = armed.reg.timeprof_snapshot().expect("timeprof armed");
        // The run timed the hot paths: dispatch, scheduler pops, sends.
        for label in ["ev_publish", "sched_pop", "net_send_update"] {
            let count = snap.handlers.iter().find(|(l, _)| l == label).map_or(0, |(_, h)| h.count);
            assert!(count > 0, "--jobs {}: {label} was timed", armed.jobs);
        }
    });
}

#[test]
fn frame_tree_invariants_hold_on_a_real_run() {
    let _g = shared();
    let scratch = Scratch::new("frame-tree");
    let obs = settings(&[Timeprof], scratch.0.clone());
    let (_, reg, _) = run_armed(Run::Figure("fig17"), 0, 2, &obs);
    let snap = reg.timeprof_snapshot().expect("timeprof armed");
    // Frame-tree arithmetic: self ≤ total, each parent recorded, and
    // direct children's totals fit inside their parent's.
    let by_path: HashMap<&str, &cdnc_obs::PhaseTiming> =
        snap.frames.iter().map(|(p, t)| (p.as_str(), t)).collect();
    let mut child_sums: HashMap<&str, u128> = HashMap::new();
    for (path, t) in &snap.frames {
        assert!(t.self_ns <= t.total_ns, "{path}: self {} > total {}", t.self_ns, t.total_ns);
        assert!(t.count > 0, "{path}: recorded frames are entered at least once");
        if let Some((parent, _)) = path.rsplit_once('/') {
            assert!(by_path.contains_key(parent), "{path}: parent frame recorded too");
            *child_sums.entry(parent).or_default() += t.total_ns;
        }
    }
    for (parent, sum) in child_sums {
        let total = by_path[parent].total_ns;
        assert!(sum <= total, "{parent}: children total {sum} exceeds parent total {total}");
    }
    // Worker accounting covered the batch: every task ran on a worker.
    let tasks: u64 = snap.workers.iter().map(|w| w.tasks).sum();
    assert!(tasks > 0, "parallel batches recorded worker stats");
}

#[test]
fn fig20_profile_is_jobs_invariant_within_attribution_jitter() {
    let _g = exclusive();
    ProfiledAlloc::mark_installed();
    check(&FIG20_PROFILE, |armed| {
        let text = std::fs::read_to_string(armed.dir.join("fig20.profile.json")).unwrap();
        let doc = parse(&text).unwrap();
        let sim_core = doc
            .get("attribution")
            .and_then(|a| a.get("sim_core"))
            .and_then(|s| s.get("bytes"))
            .and_then(Json::as_f64);
        assert!(sim_core.is_some_and(|b| b > 0.0), "the allocator attributes for real");
        assert!(doc.get("probes").is_some(), "structural probes recorded");
    });
}

#[test]
fn armed_figures_match_plain_runs() {
    let _g = shared();
    check(&ARMED_VS_PLAIN, |armed| {
        // The HAT and failure figures log Algorithm 1 switches and
        // failovers.
        let Output::Figure(report) = armed.output else { unreachable!() };
        let log = armed.dir.join(format!("{}.jsonl", report.id));
        assert!(log.exists(), "{}: the event log recorded the run", report.id);
    });
}

#[test]
fn series_sampling_is_observation_only() {
    let _g = shared();
    check(&FIG20_SERIES, |armed| {
        let series = armed.reg.series_snapshot();
        assert!(
            series
                .get("sched_queue_depth", cdnc_obs::SeriesKind::Gauge)
                .is_some_and(|e| !e.points.is_empty()),
            "queue depth must be sampled"
        );
    });
}

#[test]
fn written_artifact_is_well_formed_json() {
    let _g = shared();
    let scratch = Scratch::new("artifact");
    let obs = settings(&[Events, Tracing], scratch.0.clone());
    let (Output::Figure(report), reg, _) = run_armed(Run::Figure("fig20"), 0, 1, &obs) else {
        unreachable!()
    };
    let path = write_figure_artifact(&obs.dir, "fig20", Scale::Smoke, &report, 1.25, &reg).unwrap();
    let doc = parse(&std::fs::read_to_string(path).unwrap()).expect("artifact is valid JSON");
    assert_eq!(doc.get("run_id").and_then(Json::as_str), Some("fig20"));
    let summary = doc.get("summary").expect("summary object");
    assert_eq!(summary.get("wall_s").and_then(Json::as_f64), Some(1.25));
    let events = doc
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("sched_events_processed"))
        .and_then(Json::as_f64);
    assert!(events.is_some_and(|n| n > 0.0), "metrics include the scheduler event count");
    assert!(doc.get("phases").is_some(), "artifact includes phase timings");
}

/// ext_workload's smoke-scale digest chain and event count, as the
/// map-based edge cache produced them. Every request, fill, churn and
/// origin fetch folds into the chain, so any drift in the request plane —
/// catalog draws, cache hits and evictions, waiter release order — changes
/// it. Update both only for an intended behaviour change.
const EXT_WORKLOAD_CHAIN: &str = "0x6a303f0344acd3ba";
const EXT_WORKLOAD_EVENTS: f64 = 41_709_270.0;

#[test]
fn ext_workload_is_jobs_invariant() {
    let _g = shared();
    let tree = check(&EXT_WORKLOAD_SERIES, |armed| {
        let Output::Figure(report) = armed.output else { unreachable!() };
        assert!(!report.curves.is_empty(), "ext_workload must record CDF curves");
        assert!(armed.dir.join("ext_workload.workload.json").exists());
    });
    let digest = tree.0.join("ext_workload-r0/jobs1/ext_workload.digest.json");
    let doc = parse(&std::fs::read_to_string(digest).unwrap()).unwrap();
    assert_eq!(doc.get("chain").and_then(Json::as_str), Some(EXT_WORKLOAD_CHAIN), "pinned chain");
    assert_eq!(doc.get("events").and_then(Json::as_f64), Some(EXT_WORKLOAD_EVENTS), "pinned count");
}

#[test]
fn instrumented_crawl_matches_uninstrumented() {
    let _g = shared();
    check(&CRAWL_CANONICAL, |_| {});
}

#[test]
fn crawl_is_jobs_invariant_on_derived_replicates() {
    let _g = shared();
    check(&CRAWL_DERIVED, |_| {});
}

#[test]
fn scoped_allocations_attribute_to_the_scope_for_real() {
    let _g = exclusive();
    ProfiledAlloc::mark_installed();
    profile::set_enabled(true);
    let base = profile::snapshot();
    let grabbed = {
        let _net = profile::scope(Subsystem::Net);
        // Re-entrancy: this Vec's allocation goes through ProfiledAlloc,
        // which reads the thread's tag while the guard is alive.
        vec![0u8; 64 * 1024]
    };
    profile::set_enabled(false);
    let window = profile::snapshot().window_since(&base);
    assert!(
        window.subsystem(Subsystem::Net).bytes >= grabbed.capacity() as u64,
        "a 64 KiB allocation under scope(Net) must be charged to net, got {:?}",
        window.subsystem(Subsystem::Net)
    );
}

// ---------------------------------------------------------------------------
// Seed determinism.
// ---------------------------------------------------------------------------

#[test]
fn worlds_are_seed_deterministic() {
    let _g = shared();
    assert_eq!(WorldBuilder::new(500).seed(3).build(), WorldBuilder::new(500).seed(3).build());
    assert_ne!(WorldBuilder::new(500).seed(3).build(), WorldBuilder::new(500).seed(4).build());
}

#[test]
fn update_sequences_are_seed_deterministic() {
    let _g = shared();
    let a = UpdateSequence::live_game(&mut SimRng::seed_from_u64(1));
    let b = UpdateSequence::live_game(&mut SimRng::seed_from_u64(1));
    let c = UpdateSequence::live_game(&mut SimRng::seed_from_u64(2));
    assert_eq!(a, b);
    assert_ne!(a, c);
}

#[test]
fn traces_are_seed_deterministic() {
    let _g = shared();
    let cfg = CrawlConfig { servers: 30, users: 10, days: 1, ..CrawlConfig::tiny() };
    assert_eq!(crawl(&cfg), crawl(&cfg));
    let other = CrawlConfig { seed: 9, ..cfg };
    assert_ne!(
        crawl(&other),
        crawl(&CrawlConfig { servers: 30, users: 10, days: 1, ..CrawlConfig::tiny() })
    );
}

#[test]
fn simulations_are_seed_deterministic_across_all_schemes() {
    let _g = shared();
    let updates = UpdateSequence::live_game(&mut SimRng::seed_from_u64(5));
    for scheme in Scheme::section5_lineup() {
        let mut cfg = SimConfig::section4(scheme, updates.clone());
        cfg.servers = 30;
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a, b, "{scheme} diverged across identical runs");
        cfg.seed = 1234;
        let c = run(&cfg);
        assert_ne!(a, c, "{scheme} ignored the seed");
    }
}

#[test]
fn figure_reports_are_reproducible() {
    let _g = shared();
    let a = run_figure("fig14", Scale::Smoke, None).unwrap();
    let b = run_figure("fig14", Scale::Smoke, None).unwrap();
    assert_eq!(a, b, "figure regeneration must be deterministic");
}

/// Replicates change results (they are independent repetitions), but each
/// replicate is itself reproducible.
#[test]
fn replicates_are_independent_but_reproducible() {
    let _g = shared();
    let base = RunCtx::new(Scale::Smoke);
    let obs = Registry::disabled();
    let r0 = run_figure_ctx("fig17", base, None, &obs).unwrap();
    let r1 = run_figure_ctx("fig17", base.replicate(1), None, &obs).unwrap();
    let r1_again = run_figure_ctx("fig17", base.replicate(1), None, &obs).unwrap();
    assert_ne!(r0, r1, "replicate 1 must draw different seeds");
    assert_eq!(r1, r1_again, "each replicate must be reproducible");
}
