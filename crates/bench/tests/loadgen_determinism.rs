//! The load harness must itself be reproducible before its counters can
//! gate regressions: the plans are pure functions of the seed, a whole
//! serial run renders byte-identically run to run, and every observed
//! counter meets its plan-derived formula exactly — watch deltas, WAL
//! appends and syncs, registry evictions.

use plasma_bench::loadgen::{
    distinct_tenants_in, ingests_in, plan_for, plans, run, run_scenario, verb_counts, ScenarioKind,
    REGISTRY_CAP,
};

#[test]
fn plans_and_their_derived_counters_replay_from_the_seed() {
    for kind in ScenarioKind::all() {
        let a = plan_for(kind, 11, 0, 120, 4);
        let b = plan_for(kind, 11, 0, 120, 4);
        assert_eq!(a, b);
        assert_eq!(verb_counts(&a), verb_counts(&b));
        assert_eq!(ingests_in(&a), ingests_in(&b));
        assert_eq!(distinct_tenants_in(&a), distinct_tenants_in(&b));
        // Different plans draw from different substreams.
        let c = plan_for(kind, 11, 1, 120, 4);
        assert_ne!(a, c, "{kind:?}: plans must not reuse one substream");
    }
}

#[test]
fn two_fresh_runs_render_byte_identical_reports() {
    let a = run(42).expect("first run").to_json().encode();
    let b = run(42).expect("second run").to_json().encode();
    assert_eq!(a, b);
}

#[test]
fn a_different_seed_changes_some_verb_mix() {
    let a = run(42).expect("seed 42");
    let b = run(43).expect("seed 43");
    assert!(
        a.scenarios
            .iter()
            .zip(&b.scenarios)
            .any(|(x, y)| x.verbs != y.verbs),
        "the seed must reach the plans"
    );
}

#[test]
fn serial_watcher_receives_registration_plus_one_delta_per_ingest() {
    let kind = ScenarioKind::IngestProbeWatch;
    let s = run_scenario(kind, 9).expect("scenario runs");
    let plans = plans(kind, 9);
    let ingests: u64 = plans.iter().map(|p| ingests_in(p)).sum();
    assert!(ingests > 0, "the mixed plans must carry ingests");
    assert!(s.watchers > 0);
    assert_eq!(s.error_requests, 0);
    assert_eq!(
        s.watch_deltas,
        s.watchers as u64 * (plans.len() as u64 + ingests),
        "per plan, every watcher sees its registration plus one delta per ingest"
    );
}

#[test]
fn every_scenario_meets_its_counter_formulas() {
    for kind in ScenarioKind::all() {
        let s = run_scenario(kind, 7).expect("scenario runs");
        let plans = plans(kind, 7);
        let name = kind.name();
        assert_eq!(s.completed_requests, s.planned_requests, "{name}");
        assert_eq!(s.error_requests, 0, "{name}");
        assert_eq!(s.verbs.values().sum::<u64>(), s.planned_requests, "{name}");
        assert_eq!(s.watch_deltas, s.watch_deltas_expected, "{name}");
        assert_eq!(
            s.wal_acked_appends,
            plans.iter().map(|p| ingests_in(p)).sum::<u64>(),
            "{name}: every ingest is acked durable"
        );
        assert_eq!(
            s.wal_syncs, s.wal_acked_appends,
            "{name}: a serial run syncs once per append"
        );
        let evictions: u64 = if kind == ScenarioKind::TenantChurn {
            plans
                .iter()
                .map(|p| distinct_tenants_in(p).saturating_sub(REGISTRY_CAP as u64))
                .sum()
        } else {
            0
        };
        assert_eq!(
            s.registry_evictions, evictions,
            "{name}: evictions are distinct tenants minus the cap"
        );
        assert_eq!(
            s.registry_evictions, s.registry_evictions_expected,
            "{name}"
        );
    }
}
