//! Per-cell correctness checks and the informational report digest.
//!
//! A failed check never aborts a run: the cell is counted in `failed` (and
//! so in `failed_frac`), the reason goes to standard error, and the run
//! carries on.

use cdnc_core::SimReport;
use std::fmt::{self, Write as _};

/// Model invariants every report must satisfy, on any seed.
pub fn check_report(r: &SimReport) -> Result<(), String> {
    if r.events == 0 {
        return Err("no events processed".into());
    }
    let w = &r.workload;
    if w.hits + w.delayed_hits + w.misses != w.requests {
        return Err(format!(
            "hits {} + delayed {} + misses {} != requests {}",
            w.hits, w.delayed_hits, w.misses, w.requests
        ));
    }
    if r.node_joins != r.node_leaves + r.crash_restarts {
        return Err(format!(
            "joins {} != leaves {} + crash restarts {}",
            r.node_joins, r.node_leaves, r.crash_restarts
        ));
    }
    if r.convergence_violations != 0 {
        return Err(format!("{} convergence violations", r.convergence_violations));
    }
    Ok(())
}

/// A resumed run must reproduce the uninterrupted one exactly.
pub fn check_resume(uninterrupted: &SimReport, resumed: &SimReport) -> Result<(), String> {
    if uninterrupted == resumed {
        Ok(())
    } else {
        Err(format!(
            "resumed report differs from the uninterrupted run (events {} vs {})",
            resumed.events, uninterrupted.events
        ))
    }
}

/// An armed observed run must have recorded spans and folded a digest.
pub fn check_observed(spans: usize, digest_events: u64) -> Result<(), String> {
    match (spans, digest_events) {
        (0, _) => Err("span store is empty".into()),
        (_, 0) => Err("digest chain is empty".into()),
        _ => Ok(()),
    }
}

/// Pass/fail counts over the cells a run attempted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Cells run.
    pub attempted: u64,
    /// Cells that failed at least one check (or panicked).
    pub failed: u64,
}

impl Tally {
    /// Records one cell's verdict, reporting a failure on standard error.
    pub fn record(&mut self, label: &str, verdict: &Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("perfbench: cell {label} failed: {why}");
        }
    }

    /// `failed / attempted` (0 before any cell ran).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// FNV-1a over a formatted value, streamed without building the string.
struct Fnv(u64);

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// A fold of every field of a report. `Debug` prints each `f64` in its
/// shortest round-trip form, so two reports hash alike iff they are
/// bit-identical (up to the sign of zero).
pub fn report_hash(r: &SimReport) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{r:?}").expect("hashing never fails");
    h.0
}

/// Order-sensitive fold of per-cell report hashes into a workload digest.
pub fn fold(digest: u64, cell: u64) -> u64 {
    cdnc_obs::digest::mix(digest, cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdnc_core::{run, MethodKind, Scheme, SimConfig, WorkloadPlan};
    use cdnc_simcore::{SimDuration, SimTime};
    use cdnc_trace::UpdateSequence;

    fn small_report() -> SimReport {
        let updates = UpdateSequence::periodic(SimDuration::from_secs(30), SimTime::from_secs(120));
        let mut cfg = SimConfig::section4(Scheme::Unicast(MethodKind::Ttl), updates);
        cfg.servers = 4;
        cfg.drain = SimDuration::from_secs(60);
        cfg.workload = Some(WorkloadPlan::default());
        run(&cfg)
    }

    #[test]
    fn a_real_report_passes() {
        let r = small_report();
        assert!(r.workload.requests > 0);
        assert_eq!(check_report(&r), Ok(()));
        assert_eq!(check_resume(&r, &r.clone()), Ok(()));
    }

    #[test]
    fn an_injected_bad_report_is_counted_as_failed() {
        let good = small_report();
        let mut lost_request = good.clone();
        lost_request.workload.hits += 1;
        let mut stray_join = good.clone();
        stray_join.node_joins += 1;
        let mut diverged = good.clone();
        diverged.convergence_violations = 2;
        let mut tally = Tally::default();
        tally.record("good", &check_report(&good));
        for bad in [&lost_request, &stray_join, &diverged] {
            tally.record("bad", &check_report(bad));
        }
        tally.record("resume", &check_resume(&good, &lost_request));
        tally.record("observed", &check_observed(0, 10));
        assert_eq!(tally, Tally { attempted: 6, failed: 5 });
        assert!((tally.failed_frac() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn report_hash_sees_every_field() {
        let r = small_report();
        let mut other = r.clone();
        other.workload.latency_s.push(0.5);
        assert_eq!(report_hash(&r), report_hash(&r.clone()));
        assert_ne!(report_hash(&r), report_hash(&other));
        assert_ne!(fold(0, 1), fold(0, 2));
    }
}
