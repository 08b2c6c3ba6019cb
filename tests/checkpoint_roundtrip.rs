//! Integration: checkpoint/restore is exact. For arbitrary scheme ×
//! churn-intensity × pause-time combinations, serializing a paused
//! simulation and resuming it must reproduce the uninterrupted run bit
//! for bit — same report, same determinism-digest chain — and the replay
//! artifact layer on top must self-verify. Tampered or structurally
//! mismatched artifacts must fail loudly, never restore garbage.

use cdnc_core::{
    checkpoint, checkpoint_with_obs, resume, resume_until, resume_with_obs, run_with_obs,
    ChurnPlan, FaultPlan, MethodKind, Scheme, SimConfig, WorkloadPlan,
};
use cdnc_experiments::replay::{read_artifact, replay, take_checkpoint, ReplaySpec};
use cdnc_experiments::Scale;
use cdnc_obs::{DigestConfig, Registry};
use cdnc_simcore::{SimRng, SimTime};
use cdnc_trace::UpdateSequence;
use proptest::prelude::*;

/// The scheme palette the property sweeps (unicast, tree, hybrid).
fn schemes() -> [Scheme; 4] {
    [
        Scheme::Unicast(MethodKind::Push),
        Scheme::Unicast(MethodKind::Ttl),
        Scheme::Multicast { method: MethodKind::Invalidation, arity: 2 },
        Scheme::hat(),
    ]
}

fn cfg(scheme_idx: usize, intensity: f64, workload: bool) -> SimConfig {
    let scheme = schemes()[scheme_idx % 4];
    let mut cfg =
        SimConfig::section4(scheme, UpdateSequence::live_game(&mut SimRng::seed_from_u64(42)));
    cfg.servers = 24;
    cfg.faults = Some(FaultPlan::at_intensity(0.0));
    cfg.churn = Some(ChurnPlan::at_intensity(intensity));
    if workload {
        cfg.workload = Some(WorkloadPlan::default());
    }
    cfg
}

fn digest_registry() -> Registry {
    let reg = Registry::enabled();
    reg.enable_digest(DigestConfig::default());
    reg
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4 })]

    /// Pause anywhere, resume, and nothing is different: the resumed
    /// report equals the uninterrupted one and the restored digest chain
    /// continues to the same final value over the same fold count.
    #[test]
    fn prop_resume_is_bit_identical(
        scheme_idx in 0usize..4,
        intensity_tenths in 0u32..=10,
        at_s in 0u64..=600,
        workload in (0u8..2).prop_map(|b| b == 1),
    ) {
        let cfg = cfg(scheme_idx, f64::from(intensity_tenths) / 10.0, workload);
        let straight_reg = digest_registry();
        let straight = run_with_obs(&cfg, &straight_reg);

        let ckpt_reg = digest_registry();
        let artifact = checkpoint_with_obs(&cfg, &ckpt_reg, SimTime::from_secs(at_s));
        let resume_reg = digest_registry();
        let resumed = resume_with_obs(&cfg, &resume_reg, &artifact).expect("well-formed artifact");
        prop_assert_eq!(&resumed, &straight, "resumed report diverged");

        let s = straight_reg.digest_snapshot().expect("digest armed");
        let r = resume_reg.digest_snapshot().expect("digest armed");
        prop_assert_eq!(r.chain, s.chain, "digest chain diverged after restore");
        prop_assert_eq!(r.events, s.events, "fold counts diverged after restore");
    }

    /// Stepping a restored run only to an intermediate time re-serializes
    /// to exactly the artifact a straight run checkpoints there: restore
    /// is exact at every instant, not just at the horizon.
    #[test]
    fn prop_windowed_resume_reserializes_identically(
        scheme_idx in 0usize..4,
        at_s in 0u64..=300,
        window_s in 1u64..=300,
    ) {
        let cfg = cfg(scheme_idx, 0.8, false);
        let artifact = checkpoint(&cfg, SimTime::from_secs(at_s));
        let until = SimTime::from_secs(at_s + window_s);
        let stepped = resume_until(&cfg, &artifact, until).expect("well-formed artifact");
        let straight = checkpoint(&cfg, until);
        prop_assert_eq!(stepped, straight, "windowed restore drifted from a straight run");
    }
}

#[test]
fn structural_mismatch_and_tampering_fail_loudly() {
    let base = cfg(0, 0.5, false);
    let artifact = checkpoint(&base, SimTime::from_secs(120));

    let mut more_servers = cfg(0, 0.5, false);
    more_servers.servers += 8;
    assert!(resume(&more_servers, &artifact).is_err(), "server-count mismatch must be rejected");

    let mut with_workload = cfg(0, 0.5, true);
    with_workload.servers = base.servers;
    assert!(resume(&with_workload, &artifact).is_err(), "subsystem mismatch must be rejected");

    let truncated: String = artifact.lines().take(40).map(|l| format!("{l}\n")).collect();
    assert!(resume(&base, &truncated).is_err(), "truncation must be rejected");
    assert!(resume(&base, "not an artifact").is_err(), "garbage must be rejected");

    // Out-of-range values are rejected before anything truncates them,
    // indexes with them, or allocates from them.
    let storm = cfg(3, 0.8, false);
    let artifact = checkpoint(&storm, SimTime::from_secs(340));
    let arrive = artifact.find("\nev=2\n").expect("a message in flight") + "\nev=2\n".len();
    for (key, after, value, why) in [
        ("a", arrive, "4294967297", "node id wider than u32 (would truncate to node 1)"),
        ("a", arrive, "50000", "node id past the fleet size (would index out of bounds)"),
        (
            "sched_entries",
            0,
            "100000000000000",
            "queue length past the artifact size (would abort)",
        ),
    ] {
        let err = resume(&storm, &set_field(&artifact, after, key, value)).expect_err(why);
        assert!(err.0.contains(&format!("{key}={value}")), "{why}: {err}");
    }
}

/// `artifact` with the first `key=` line at or after byte `from` set to
/// `key=value`.
fn set_field(artifact: &str, from: usize, key: &str, value: &str) -> String {
    let start = from + artifact[from..].find(&format!("{key}=")).expect("field present");
    let end = start + artifact[start..].find('\n').expect("terminated line");
    format!("{}{key}={value}{}", &artifact[..start], &artifact[end..])
}

#[test]
fn replay_artifact_self_verifies_end_to_end() {
    // The experiments-level artifact: header + core checkpoint. Reading
    // it back recovers the cell spec, and replaying it — full or an
    // anomaly window — verifies bit-identity against a from-scratch run.
    let spec = ReplaySpec {
        scheme_key: "invalidation-mcast".to_owned(),
        intensity: 0.8,
        flash: true,
        scale: Scale::Smoke,
        at: SimTime::from_secs(240),
    };
    let text = take_checkpoint(&spec, &Registry::disabled());
    let (read, core) = read_artifact(&text).expect("well-formed replay artifact");
    assert_eq!(read, spec, "header round-trips the cell spec");
    assert!(core.starts_with("ckpt_version="), "core artifact embedded after the header");

    let full = replay(&text, None).expect("full replay");
    assert!(full.chain_match && full.report_match, "full replay diverged");
    let window = replay(&text, Some(SimTime::from_secs(360))).expect("windowed replay");
    assert!(window.chain_match && window.report_match, "anomaly-window replay diverged");
}

/// FNV-1a over the artifact bytes: a cheap, dependency-free fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The artifact format is pinned: four small fixed cells that together
/// exercise every optional section hash to the same bytes they did when
/// the format was introduced. A codec change that alters a key, an
/// encoding, or the field order — and so breaks existing artifacts —
/// fails here even when save and restore still agree with each other.
#[test]
fn artifact_format_is_pinned() {
    let base = |scheme| {
        let mut cfg =
            SimConfig::section4(scheme, UpdateSequence::live_game(&mut SimRng::seed_from_u64(7)));
        cfg.servers = 12;
        cfg
    };
    // Pause times are picked so each artifact carries in-flight work:
    // messages on the wire, pending publishes, tracked deliveries, cache
    // waiters and departed nodes.
    let at = SimTime::from_secs;
    // Plain unicast: every optional section absent.
    let plain = checkpoint(&base(Scheme::Unicast(MethodKind::Push)), at(450));
    // Multicast: distribution tree present.
    let tree = checkpoint(
        &base(Scheme::Multicast { method: MethodKind::Invalidation, arity: 2 }),
        at(450),
    );
    // HAT with graceful degradation under a fault plan: reliable ledger
    // and cluster map present.
    let mut hat = base(Scheme::hat());
    hat.faults = Some(FaultPlan { hat_degradation: true, ..FaultPlan::at_intensity(0.5) });
    let hat = checkpoint(&hat, at(1200));
    // Fault plan + workload + churn with a digest-armed registry: request
    // plane, lifecycle and digest segment present.
    let mut full = base(Scheme::hat());
    full.faults = Some(FaultPlan::at_intensity(0.3));
    full.workload = Some(WorkloadPlan::default());
    full.churn = Some(ChurnPlan::at_intensity(0.8));
    let full = checkpoint_with_obs(&full, &digest_registry(), at(500));

    for (section, art) in [("tree", &tree), ("reliable", &hat), ("clusters", &hat)] {
        assert!(art.contains(&format!("\n{section}=1\n")), "{section} section present");
    }
    for section in ["workload", "lifecycle", "digest"] {
        assert!(full.contains(&format!("\n{section}=1\n")), "{section} section present");
    }
    for section in ["reliable", "clusters", "tree", "workload", "lifecycle", "digest"] {
        assert!(plain.contains(&format!("\n{section}=0\n")), "{section} section absent");
    }
    let got = [&plain, &tree, &hat, &full].map(|a| fnv1a(a.as_bytes()));
    assert_eq!(
        got,
        [
            0x1c69_bb7b_aaa7_136f,
            0xa940_56f8_3c5b_1532,
            0x3194_ff06_2c29_a6e2,
            0x7f5b_d587_a185_103c
        ],
        "artifact bytes changed"
    );
}
