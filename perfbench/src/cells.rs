//! The cell generator: every workload's inputs, made from the seed alone.
//!
//! A *cell* is one [`SimConfig`] plus the public entry point that consumes
//! it ([`Call`]). A workload's cells are a pure function of
//! `(workload, seed)`. Every seed yields the same strata — the same
//! schemes, regimes and server-count ranges — and the seed only places
//! server counts within them, draws the live-game update sequence, picks
//! checkpoint times and seeds the simulations. So the mix of cell sizes
//! behind every percentile is nearly the same from seed to seed; that is
//! what keeps `cell_s.p50`/`cell_s.p90` steady.

use cdnc_core::{
    ChurnKind, ChurnPlan, ChurnTarget, FaultPlan, MethodKind, ScheduledChurn, Scheme, SimConfig,
    WorkloadPlan,
};
use cdnc_simcore::{derive_seed, SimDuration, SimRng, SimTime};
use cdnc_trace::UpdateSequence;

/// The benchmark's workloads. See the crate docs for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §4/§5 consistency plane only.
    Consistency,
    /// Consistency plane plus the request plane (Zipf catalog, edge LRUs).
    RequestPlane,
    /// Lifecycle churn over a fault plan, with checkpoint + resume.
    ChurnRecovery,
    /// Consistency cells with every recorder armed, plus Chrome export.
    Observed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Consistency,
        Workload::RequestPlane,
        Workload::ChurnRecovery,
        Workload::Observed,
    ];

    /// The command-line / `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Consistency => "consistency",
            Workload::RequestPlane => "request_plane",
            Workload::ChurnRecovery => "churn_recovery",
            Workload::Observed => "observed",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Stream index separating the workloads' generators.
    fn tag(self) -> u64 {
        self as u64 + 1
    }
}

/// The public entry point a cell is consumed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `cdnc_core::run` on a disabled registry.
    Run,
    /// `run`, then `checkpoint` at `at` and `resume` of that artifact; the
    /// resumed report must equal the uninterrupted one.
    CheckpointResume {
        /// Simulation time of the checkpoint.
        at: SimTime,
    },
    /// `run_with_obs` with metrics, tracing, series, timeprof and digest
    /// armed, then `cdnc_obs::chrome::to_chrome` of the span store,
    /// serialized.
    Observed,
}

/// One benchmark input.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Human-readable identity, e.g. `HAT/n=64`.
    pub label: String,
    /// The simulation configuration.
    pub cfg: SimConfig,
    /// How the configuration is consumed.
    pub call: Call,
}

/// The §4 infrastructure × method grid plus the §5 adaptive systems.
fn consistency_schemes() -> [(Scheme, bool); 9] {
    // (scheme, uses the §5.3 configuration; see `base_config`).
    [
        (Scheme::Unicast(MethodKind::Push), false),
        (Scheme::Unicast(MethodKind::Invalidation), false),
        (Scheme::Unicast(MethodKind::Ttl), false),
        (Scheme::Multicast { method: MethodKind::Push, arity: 2 }, false),
        (Scheme::Multicast { method: MethodKind::Invalidation, arity: 2 }, false),
        (Scheme::Multicast { method: MethodKind::Ttl, arity: 2 }, false),
        (Scheme::Unicast(MethodKind::SelfAdaptive), true),
        (Scheme::hybrid(), true),
        (Scheme::hat(), true),
    ]
}

/// The `ext_churn` scheme set: every method over unicast and 2-ary trees,
/// plus HAT.
fn churn_schemes() -> [Scheme; 7] {
    [
        Scheme::Unicast(MethodKind::Push),
        Scheme::Unicast(MethodKind::Invalidation),
        Scheme::Unicast(MethodKind::Ttl),
        Scheme::Multicast { method: MethodKind::Push, arity: 2 },
        Scheme::Multicast { method: MethodKind::Invalidation, arity: 2 },
        Scheme::Multicast { method: MethodKind::Ttl, arity: 2 },
        Scheme::hat(),
    ]
}

/// Server counts of the `consistency` workload, drawn log-uniformly (the
/// top stratum is the large-N tail `cell_s.p90` tracks).
pub const CONSISTENCY_SERVERS: (usize, usize) = (16, 160);
/// Size strata (cells) per scheme in the `consistency` workload.
pub const CONSISTENCY_PER_SCHEME: usize = 4;
/// Server counts of the `observed` workload: the consistency generator,
/// scaled down so the armed span store stays well under 1 GB.
pub const OBSERVED_SERVERS: (usize, usize) = (4, 10);
/// Size strata (cells) per scheme in the `observed` workload.
pub const OBSERVED_PER_SCHEME: usize = 4;
/// Server-count band of the `request_plane` workload (per-edge load does
/// not depend on the server count, so small fleets keep cells short).
pub const REQUEST_BAND: usize = 8;
/// Server-count band of the `churn_recovery` workload (`ext_churn` smoke
/// scale).
pub const CHURN_BAND: usize = 40;
/// The `ext_workload` regimes: (name, catalog size, Zipf exponent).
pub const REQUEST_REGIMES: [(&str, usize, f64); 3] =
    [("base", 512, 0.9), ("wide", 2_048, 0.6), ("hot", 2_048, 1.2)];
/// The `ext_churn` regimes: (name, churn intensity, flash supernode kill).
pub const CHURN_REGIMES: [(&str, f64, bool); 2] = [("mild", 0.3, false), ("storm", 0.8, true)];
/// Network-fault intensity under the churn cells: non-zero, so retransmits,
/// duplicate suppression and abandonment all run.
pub const CHURN_FAULT_INTENSITY: f64 = 0.2;

/// A server count drawn uniformly within ±5 % of `band`.
fn jitter(rng: &mut SimRng, band: usize) -> usize {
    let lo = (band as f64 * 0.95).round() as u64;
    let hi = (band as f64 * 1.05).round() as u64;
    rng.int_range(lo, hi) as usize
}

/// The §5.3 configuration for the adaptive systems, §4's for the rest.
fn base_config(scheme: Scheme, section5: bool, updates: &UpdateSequence) -> SimConfig {
    if section5 {
        SimConfig::section5(scheme, updates.clone())
    } else {
        SimConfig::section4(scheme, updates.clone())
    }
}

/// `workload`'s cells for `seed`. Deterministic in its arguments.
pub fn cells(workload: Workload, seed: u64) -> Vec<Cell> {
    let mut rng = SimRng::seed_from_u64(derive_seed(seed, workload.tag()));
    let updates = UpdateSequence::live_game(&mut rng.fork());
    match workload {
        Workload::Consistency => {
            consistency(&mut rng, &updates, CONSISTENCY_SERVERS, CONSISTENCY_PER_SCHEME, Call::Run)
        }
        Workload::Observed => {
            consistency(&mut rng, &updates, OBSERVED_SERVERS, OBSERVED_PER_SCHEME, Call::Observed)
        }
        Workload::RequestPlane => request_plane(&mut rng, &updates),
        Workload::ChurnRecovery => churn_recovery(&mut rng, &updates),
    }
}

/// `per_scheme` cells per scheme: the server-count range is cut into that
/// many equal log-scale strata, and every scheme gets one count drawn
/// log-uniformly inside each, so every seed covers the range evenly.
fn consistency(
    rng: &mut SimRng,
    updates: &UpdateSequence,
    servers: (usize, usize),
    per_scheme: usize,
    call: Call,
) -> Vec<Cell> {
    let (lo, hi) = (servers.0 as f64, servers.1 as f64);
    let mut out = Vec::new();
    for j in 0..per_scheme {
        for (scheme, section5) in consistency_schemes() {
            let mut cfg = base_config(scheme, section5, updates);
            let u = (j as f64 + rng.uniform_f64()) / per_scheme as f64;
            cfg.servers = (lo * (hi / lo).powf(u)).round() as usize;
            cfg.seed = rng.int_range(0, u64::MAX - 1);
            out.push(Cell { label: format!("{scheme}/n={}", cfg.servers), cfg, call });
        }
    }
    out
}

fn request_plane(rng: &mut SimRng, updates: &UpdateSequence) -> Vec<Cell> {
    let mut out = Vec::new();
    for (regime, catalog, zipf_s) in REQUEST_REGIMES {
        for (scheme, section5) in consistency_schemes() {
            let mut cfg = base_config(scheme, section5, updates);
            cfg.servers = jitter(rng, REQUEST_BAND);
            cfg.seed = rng.int_range(0, u64::MAX - 1);
            cfg.workload = Some(WorkloadPlan::with_catalog(catalog, zipf_s));
            let label = format!("{scheme}/{regime}/n={}", cfg.servers);
            out.push(Cell { label, cfg, call: Call::Run });
        }
    }
    out
}

fn churn_recovery(rng: &mut SimRng, updates: &UpdateSequence) -> Vec<Cell> {
    let mut out = Vec::new();
    for (regime, intensity, flash) in CHURN_REGIMES {
        for scheme in churn_schemes() {
            let mut cfg = SimConfig::section4(scheme, updates.clone());
            cfg.servers = jitter(rng, CHURN_BAND);
            cfg.seed = rng.int_range(0, u64::MAX - 1);
            cfg.faults = Some(FaultPlan::at_intensity(CHURN_FAULT_INTENSITY));
            let mut plan = ChurnPlan::at_intensity(intensity);
            if flash {
                plan.scheduled.push(ScheduledChurn {
                    at: SimDuration::from_secs(300),
                    target: ChurnTarget::Supernode(0),
                    kind: ChurnKind::Crash,
                    downtime: SimDuration::from_secs(45),
                });
            }
            cfg.churn = Some(plan);
            // A mid-run checkpoint: anywhere in the middle 60 % of the run.
            let horizon = cfg.horizon().as_secs_f64();
            let at = SimTime::from_secs_f64(rng.uniform_range(0.2, 0.8) * horizon);
            let label = format!("{scheme}/{regime}/n={}", cfg.servers);
            out.push(Cell { label, cfg, call: Call::CheckpointResume { at } });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(cells: &[Cell]) -> String {
        cells.iter().map(|c| format!("{} {:?} {:?}\n", c.label, c.call, c.cfg)).collect()
    }

    #[test]
    fn generator_is_deterministic_in_its_seed() {
        for w in Workload::ALL {
            let a = fingerprint(&cells(w, 7));
            assert_eq!(a, fingerprint(&cells(w, 7)), "{}: same seed, same cells", w.name());
            assert_ne!(a, fingerprint(&cells(w, 8)), "{}: seed changes cells", w.name());
        }
    }

    #[test]
    fn every_seed_has_the_same_strata() {
        for w in Workload::ALL {
            let shape = |seed| -> Vec<String> {
                let mut shape: Vec<String> = cells(w, seed)
                    .iter()
                    .map(|c| format!("{} {:?}", c.cfg.scheme, c.cfg.workload))
                    .collect();
                shape.sort();
                shape
            };
            assert_eq!(shape(1), shape(99), "{}", w.name());
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("bogus"), None);
    }
}
