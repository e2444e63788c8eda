//! `plasma-loadgen`: the serial counter harness behind `repro loadgen`.
//!
//! Three scenarios drive the real serving stack in-process through
//! [`InProcClient`]s:
//!
//! * `probe_mix` — three sessions over one published corpus, thresholds
//!   drawn Zipf-style from a ladder (analysts re-probe a few favorite
//!   thresholds far more than the tail).
//! * `ingest_probe_watch` — ingest + probe + memory-stats against one
//!   *durable* corpus (scratch data directory), with threshold watches
//!   registered before the run, so every ingest is a WAL append plus a
//!   group-commit fsync and pushes one delta to each watcher.
//! * `tenant_churn` — publish/attach/probe/detach cycles across more
//!   tenants than the cache registry's cap admits, so publishes evict.
//!
//! Each scenario runs three seeded plans, each on a fresh stack. Request
//! `i` goes to connection `i % 3`, and every connection's watch frames
//! are drained after each request. Nothing runs concurrently, so every
//! counter — per-verb counts, watch deltas, WAL appends and syncs,
//! registry evictions — is a pure function of the seed, and
//! `repro check-bench --against` compares them exactly. The harness
//! keeps no clock: `benchmark/` answers timing questions.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use plasma_core::cache::RegistryCapacity;
use plasma_data::datasets::gaussian::GaussianSpec;
use plasma_data::rng::substream;
use plasma_data::similarity::Similarity;
use plasma_data::vector::SparseVector;
use plasma_data::zipf::Zipf;
use plasma_server::json::{self, Json};
use plasma_server::{InProcClient, ProbeService, PublishCfg, Request, Response};
use rand::Rng;

use crate::perf::count;

/// The probe-threshold ladder verbs draw from (rank 0 most popular).
pub const THRESHOLD_LADDER: [f64; 9] = [0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6, 0.55, 0.5];

/// Registry cache cap for `tenant_churn` — below the tenant count, so
/// publishes evict.
pub const REGISTRY_CAP: usize = 2;

/// Seeded plans per scenario (substreams `0..PLANS`).
const PLANS: u64 = 3;
/// Requests per plan.
const PLAN_REQUESTS: usize = 45;
/// Connections per plan; request `i` goes to connection `i % SESSIONS`.
const SESSIONS: usize = 3;
/// Connections that register a threshold watch (`ingest_probe_watch`).
const WATCHERS: usize = 2;
/// Tenant corpora for `tenant_churn`.
const TENANTS: usize = 5;
/// Records in the corpus published for `probe_mix`/`ingest_probe_watch`.
const INITIAL_RECORDS: usize = 96;
/// Records per ingest batch.
const INGEST_BATCH_RECORDS: usize = 3;
/// Records per tenant corpus.
const TENANT_RECORDS: usize = 24;

/// The three load shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Zipf-distributed threshold probes over one shared corpus.
    ProbeMix,
    /// Ingest + probe + memory-stats against one durable corpus, with
    /// watches registered.
    IngestProbeWatch,
    /// Publish/attach/probe/detach churn across more tenants than the
    /// registry cap admits.
    TenantChurn,
}

impl ScenarioKind {
    /// All scenarios, in report order.
    pub fn all() -> [ScenarioKind; 3] {
        [
            ScenarioKind::ProbeMix,
            ScenarioKind::IngestProbeWatch,
            ScenarioKind::TenantChurn,
        ]
    }

    /// The snapshot-stable scenario name.
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::ProbeMix => "probe_mix",
            ScenarioKind::IngestProbeWatch => "ingest_probe_watch",
            ScenarioKind::TenantChurn => "tenant_churn",
        }
    }

    fn stream_base(&self) -> u64 {
        match self {
            ScenarioKind::ProbeMix => 0x100,
            ScenarioKind::IngestProbeWatch => 0x200,
            ScenarioKind::TenantChurn => 0x300,
        }
    }
}

/// One request a plan issues.
#[derive(Debug, Clone, PartialEq)]
pub enum Verb {
    /// `Probe { threshold }` on the shared corpus.
    Probe { threshold: f64 },
    /// Ingest the pre-generated batch with this index.
    Ingest { batch: usize },
    /// A `memory_stats` round trip.
    MemoryStats,
    /// One full publish→attach→probe→detach cycle for this tenant.
    Churn { tenant: usize },
}

impl Verb {
    /// The snapshot-stable verb name.
    pub fn name(&self) -> &'static str {
        match self {
            Verb::Probe { .. } => "probe",
            Verb::Ingest { .. } => "ingest",
            Verb::MemoryStats => "memory_stats",
            Verb::Churn { .. } => "churn",
        }
    }
}

/// Generates one deterministic request plan.
///
/// Everything downstream that the regression gate compares exactly —
/// per-verb counts, ingest batch count, distinct churned tenants —
/// derives from this plan, so it must be a pure function of
/// `(kind, seed, stream, requests, tenants)`.
pub fn plan_for(
    kind: ScenarioKind,
    seed: u64,
    stream: u64,
    requests: usize,
    tenants: usize,
) -> Vec<Verb> {
    let mut rng = substream(seed, kind.stream_base() + stream);
    let ladder = Zipf::new(THRESHOLD_LADDER.len(), 1.1);
    let tenant_zipf = Zipf::new(tenants.max(1), 1.0);
    let mut next_batch = 0usize;
    (0..requests)
        .map(|_| match kind {
            ScenarioKind::ProbeMix => Verb::Probe {
                threshold: THRESHOLD_LADDER[ladder.sample(&mut rng)],
            },
            ScenarioKind::IngestProbeWatch => match rng.gen_range(0..10u32) {
                0..=6 => Verb::Probe {
                    threshold: THRESHOLD_LADDER[ladder.sample(&mut rng)],
                },
                7 | 8 => {
                    let batch = next_batch;
                    next_batch += 1;
                    Verb::Ingest { batch }
                }
                _ => Verb::MemoryStats,
            },
            ScenarioKind::TenantChurn => Verb::Churn {
                tenant: tenant_zipf.sample(&mut rng),
            },
        })
        .collect()
}

/// The seeded plans [`run_scenario`] executes for `kind`, in order.
pub fn plans(kind: ScenarioKind, seed: u64) -> Vec<Vec<Verb>> {
    (0..PLANS)
        .map(|stream| plan_for(kind, seed, stream, PLAN_REQUESTS, TENANTS))
        .collect()
}

/// Per-verb request counts of a plan.
pub fn verb_counts(plan: &[Verb]) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for verb in plan {
        *counts.entry(verb.name()).or_insert(0) += 1;
    }
    counts
}

/// Number of ingest verbs in a plan.
pub fn ingests_in(plan: &[Verb]) -> u64 {
    plan.iter()
        .filter(|v| matches!(v, Verb::Ingest { .. }))
        .count() as u64
}

/// Number of distinct tenants a churn plan will publish.
pub fn distinct_tenants_in(plan: &[Verb]) -> u64 {
    plan.iter()
        .filter_map(|v| match v {
            Verb::Churn { tenant } => Some(*tenant),
            _ => None,
        })
        .collect::<BTreeSet<_>>()
        .len() as u64
}

static SCRATCH_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// One plan's serving stack: a fresh service (durable for
/// `ingest_probe_watch`, capped for `tenant_churn`), the published
/// corpus, the record pools the plan draws on, and the scratch data
/// directory removed on drop.
struct Stack {
    service: Arc<ProbeService>,
    fingerprint: Option<String>,
    ingest_batches: Vec<Vec<SparseVector>>,
    tenants: Vec<(String, Vec<SparseVector>)>,
    data_dir: Option<PathBuf>,
}

impl Stack {
    fn build(kind: ScenarioKind, seed: u64, plan: &[Verb]) -> Result<Self, String> {
        let mut data_dir = None;
        let service = match kind {
            ScenarioKind::ProbeMix => ProbeService::new(),
            ScenarioKind::IngestProbeWatch => {
                let dir = std::env::temp_dir().join(format!(
                    "plasma-loadgen-{}-{}",
                    std::process::id(),
                    SCRATCH_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                let (service, reports) = ProbeService::with_data_dir(&dir)
                    .map_err(|e| format!("cannot open scratch data dir: {e}"))?;
                if !reports.is_empty() {
                    return Err("scratch data dir was not empty".into());
                }
                data_dir = Some(dir);
                service
            }
            ScenarioKind::TenantChurn => ProbeService::with_registry_capacity(
                RegistryCapacity::unbounded().with_max_caches(REGISTRY_CAP),
            ),
        };
        let mut stack = Stack {
            service: Arc::new(service),
            fingerprint: None,
            ingest_batches: Vec::new(),
            tenants: Vec::new(),
            data_dir,
        };

        if kind == ScenarioKind::TenantChurn {
            for t in 0..TENANTS {
                // Distinct seeds give each tenant a distinct corpus (and
                // so a distinct fingerprint to publish).
                let records = GaussianSpec {
                    separation: 3.0,
                    spread: 0.8,
                    ..GaussianSpec::new("loadgen-tenant", TENANT_RECORDS, 8, 2)
                }
                .generate(seed.wrapping_add(0x1000 + t as u64))
                .records;
                stack.tenants.push((format!("tenant-{t}"), records));
            }
            return Ok(stack);
        }

        let total = INITIAL_RECORDS + ingests_in(plan) as usize * INGEST_BATCH_RECORDS;
        let records = GaussianSpec {
            separation: 3.0,
            spread: 0.8,
            ..GaussianSpec::new("loadgen", total, 8, 3)
        }
        .generate(seed.wrapping_add(kind.stream_base()))
        .records;
        let (head, tail) = records.split_at(INITIAL_RECORDS);
        stack.ingest_batches = tail
            .chunks(INGEST_BATCH_RECORDS)
            .map(<[SparseVector]>::to_vec)
            .collect();
        let mut setup = InProcClient::new(stack.service.clone());
        stack.fingerprint = Some(publish(&mut setup, "loadgen".into(), head.to_vec())?);
        Ok(stack)
    }

    /// Attaches a connection to the shared corpus, if there is one, and
    /// optionally registers a watch.
    fn setup(&self, client: &mut InProcClient, watch: bool) -> Result<(), String> {
        if let Some(fp) = &self.fingerprint {
            call(
                client,
                Request::Attach {
                    fingerprint: fp.clone(),
                    pinned: false,
                    declared_measure: None,
                },
            )?;
            if watch {
                call(client, Request::Watch { threshold: 0.7 })?;
            }
        }
        Ok(())
    }

    /// Executes one verb. A churn cycle counts as a single request.
    fn execute(&self, client: &mut InProcClient, verb: &Verb) -> Result<(), String> {
        match verb {
            Verb::Probe { threshold } => call(
                client,
                Request::Probe {
                    threshold: *threshold,
                },
            ),
            Verb::Ingest { batch } => call(
                client,
                Request::Ingest {
                    records: self.ingest_batches[*batch].clone(),
                },
            ),
            Verb::MemoryStats => call(client, Request::MemoryStats),
            Verb::Churn { tenant } => {
                let (name, records) = &self.tenants[*tenant];
                let fp = publish(client, name.clone(), records.clone())?;
                call(
                    client,
                    Request::Attach {
                        fingerprint: fp,
                        pinned: false,
                        declared_measure: None,
                    },
                )?;
                call(client, Request::Probe { threshold: 0.7 })?;
                call(client, Request::Detach)
            }
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        if let Some(dir) = self.data_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn call(client: &mut InProcClient, request: Request) -> Result<(), String> {
    match client.request(request) {
        Response::Error { code, message } => Err(format!("{code:?}: {message}")),
        _ => Ok(()),
    }
}

fn publish(
    client: &mut InProcClient,
    name: String,
    records: Vec<SparseVector>,
) -> Result<String, String> {
    match client.request(Request::Publish {
        name,
        measure: Similarity::Cosine,
        records,
        cfg: PublishCfg::default(),
    }) {
        Response::Published { fingerprint, .. } => Ok(fingerprint),
        Response::Error { code, message } => Err(format!("{code:?}: {message}")),
        other => Err(format!("unexpected publish reply: {other:?}")),
    }
}

/// Counts the watch-delta frames delivered to one connection so far:
/// its own ingests' deltas and the frames other connections' ingests
/// queued for it.
fn drain_watch_deltas(client: &mut InProcClient) -> u64 {
    client.pump_watch_frames();
    client
        .take_events()
        .iter()
        .filter(|e| matches!(e, Response::WatchDeltaEvent { .. }))
        .count() as u64
}

/// One scenario's counters, summed over its plans.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Which scenario.
    pub kind: ScenarioKind,
    /// Connections per plan.
    pub sessions: usize,
    /// Watch-registering connections per plan.
    pub watchers: usize,
    /// Tenant corpora (churn scenario).
    pub tenants: usize,
    /// Requests planned.
    pub planned_requests: u64,
    /// Requests that completed successfully.
    pub completed_requests: u64,
    /// Requests that returned an error.
    pub error_requests: u64,
    /// Executed requests per verb.
    pub verbs: BTreeMap<&'static str, u64>,
    /// Watch-delta frames delivered.
    pub watch_deltas: u64,
    /// Plan-derived expectation: watchers × (registration + ingests).
    pub watch_deltas_expected: u64,
    /// WAL appends acknowledged durable (== ingests on a fresh corpus).
    pub wal_acked_appends: u64,
    /// Group-commit fsyncs that covered them (one per append when
    /// nothing runs concurrently).
    pub wal_syncs: u64,
    /// Caches evicted from the capped registry.
    pub registry_evictions: u64,
    /// Plan-derived expectation: distinct tenants − registry cap.
    pub registry_evictions_expected: u64,
}

/// The whole harness run, rendered as `BENCH_apss.json`'s `loadgen`
/// member.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Master seed the run derived from.
    pub seed: u64,
    /// `probe_mix`, `ingest_probe_watch`, `tenant_churn`.
    pub scenarios: Vec<ScenarioReport>,
}

/// Runs one plan on a fresh stack and adds its counters to `report`.
fn run_plan(
    kind: ScenarioKind,
    seed: u64,
    plan: &[Verb],
    report: &mut ScenarioReport,
) -> Result<(), String> {
    let stack = Stack::build(kind, seed, plan)?;
    let mut clients = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS {
        let mut client = InProcClient::new(stack.service.clone());
        stack.setup(&mut client, i < report.watchers)?;
        clients.push(client);
    }
    let mut first_error = None;
    for (i, verb) in plan.iter().enumerate() {
        *report.verbs.entry(verb.name()).or_insert(0) += 1;
        match stack.execute(&mut clients[i % SESSIONS], verb) {
            Ok(()) => report.completed_requests += 1,
            Err(msg) => {
                report.error_requests += 1;
                first_error.get_or_insert(msg);
            }
        }
        for client in &mut clients {
            report.watch_deltas += drain_watch_deltas(client);
        }
    }
    if let Some(err) = first_error {
        eprintln!("  [loadgen] {}: first error: {err}", kind.name());
    }
    for client in &clients {
        client.close();
    }

    for (_, stats) in stack.service.wal_sync_stats() {
        report.wal_acked_appends += stats.acked_appends;
        report.wal_syncs += stats.syncs;
    }
    report.registry_evictions += stack.service.registry_evictions();
    report.planned_requests += plan.len() as u64;
    report.watch_deltas_expected += report.watchers as u64 * (1 + ingests_in(plan));
    if kind == ScenarioKind::TenantChurn {
        report.registry_evictions_expected +=
            distinct_tenants_in(plan).saturating_sub(REGISTRY_CAP as u64);
    }
    Ok(())
}

/// Runs one scenario: each of its [`plans`] on a fresh stack.
pub fn run_scenario(kind: ScenarioKind, seed: u64) -> Result<ScenarioReport, String> {
    let mut report = ScenarioReport {
        kind,
        sessions: SESSIONS,
        watchers: if kind == ScenarioKind::IngestProbeWatch {
            WATCHERS
        } else {
            0
        },
        tenants: if kind == ScenarioKind::TenantChurn {
            TENANTS
        } else {
            0
        },
        planned_requests: 0,
        completed_requests: 0,
        error_requests: 0,
        verbs: BTreeMap::new(),
        watch_deltas: 0,
        watch_deltas_expected: 0,
        wal_acked_appends: 0,
        wal_syncs: 0,
        registry_evictions: 0,
        registry_evictions_expected: 0,
    };
    for plan in plans(kind, seed) {
        run_plan(kind, seed, &plan, &mut report)?;
    }
    Ok(report)
}

/// Runs all three scenarios.
pub fn run(seed: u64) -> Result<LoadgenReport, String> {
    let scenarios = ScenarioKind::all()
        .into_iter()
        .map(|kind| run_scenario(kind, seed))
        .collect::<Result<_, _>>()?;
    Ok(LoadgenReport { seed, scenarios })
}

impl ScenarioReport {
    fn to_json(&self) -> Json {
        let verbs = self
            .verbs
            .iter()
            .map(|(verb, &n)| (verb.to_string(), count(n)));
        json::obj(vec![
            ("scenario", Json::Str(self.kind.name().into())),
            ("sessions", count(self.sessions as u64)),
            ("watchers", count(self.watchers as u64)),
            ("tenants", count(self.tenants as u64)),
            ("planned_requests", count(self.planned_requests)),
            ("completed_requests", count(self.completed_requests)),
            ("error_requests", count(self.error_requests)),
            ("verbs", Json::Obj(verbs.collect())),
            ("watch_deltas", count(self.watch_deltas)),
            ("watch_deltas_expected", count(self.watch_deltas_expected)),
            ("wal_acked_appends", count(self.wal_acked_appends)),
            ("wal_syncs", count(self.wal_syncs)),
            ("registry_evictions", count(self.registry_evictions)),
            (
                "registry_evictions_expected",
                count(self.registry_evictions_expected),
            ),
        ])
    }
}

impl LoadgenReport {
    /// The `loadgen` member of `BENCH_apss.json`.
    pub fn to_json(&self) -> Json {
        let scenarios = self.scenarios.iter().map(ScenarioReport::to_json);
        json::obj(vec![
            ("seed", count(self.seed)),
            ("scenarios", Json::Arr(scenarios.collect())),
        ])
    }

    /// Human-readable summary: `path = value` per counter.
    pub fn summary(&self) -> String {
        crate::perf::summary(&json::obj(vec![("loadgen", self.to_json())]))
    }
}

/// A fixture report with internally consistent counters, for schema and
/// gate tests (no measurement run needed).
#[cfg(test)]
pub(crate) fn fixture_report() -> LoadgenReport {
    let scenario = |kind: ScenarioKind| {
        let only = |when: ScenarioKind, n: u64| if kind == when { n } else { 0 };
        let verbs: BTreeMap<&'static str, u64> = match kind {
            ScenarioKind::ProbeMix => [("probe", 90u64)].into_iter().collect(),
            ScenarioKind::IngestProbeWatch => {
                [("probe", 62u64), ("ingest", 19), ("memory_stats", 9)]
                    .into_iter()
                    .collect()
            }
            ScenarioKind::TenantChurn => [("churn", 90u64)].into_iter().collect(),
        };
        ScenarioReport {
            kind,
            sessions: 3,
            watchers: only(ScenarioKind::IngestProbeWatch, 2) as usize,
            tenants: only(ScenarioKind::TenantChurn, 5) as usize,
            planned_requests: 90,
            completed_requests: 90,
            error_requests: 0,
            verbs,
            watch_deltas: only(ScenarioKind::IngestProbeWatch, 42),
            watch_deltas_expected: only(ScenarioKind::IngestProbeWatch, 42),
            wal_acked_appends: only(ScenarioKind::IngestProbeWatch, 19),
            wal_syncs: only(ScenarioKind::IngestProbeWatch, 19),
            registry_evictions: only(ScenarioKind::TenantChurn, 6),
            registry_evictions_expected: only(ScenarioKind::TenantChurn, 6),
        }
    };
    LoadgenReport {
        seed: 42,
        scenarios: ScenarioKind::all().map(scenario).to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_their_inputs() {
        for kind in ScenarioKind::all() {
            let a = plan_for(kind, 7, 2, 80, 5);
            let b = plan_for(kind, 7, 2, 80, 5);
            assert_eq!(a, b, "{kind:?} plan must replay bit-identically");
            let c = plan_for(kind, 8, 2, 80, 5);
            assert_ne!(a, c, "{kind:?} plan must actually use the seed");
            assert_eq!(a.len(), 80);
        }
    }

    #[test]
    fn mixed_plan_covers_every_verb_and_numbers_batches_sequentially() {
        let plan = plan_for(ScenarioKind::IngestProbeWatch, 42, 0, 200, 5);
        let counts = verb_counts(&plan);
        assert!(counts["probe"] > 0 && counts["ingest"] > 0 && counts["memory_stats"] > 0);
        assert_eq!(counts.values().sum::<u64>(), 200);
        let batches: Vec<usize> = plan
            .iter()
            .filter_map(|v| match v {
                Verb::Ingest { batch } => Some(*batch),
                _ => None,
            })
            .collect();
        assert_eq!(batches, (0..batches.len()).collect::<Vec<_>>());
        assert_eq!(ingests_in(&plan), batches.len() as u64);
    }

    #[test]
    fn fixture_report_renders_balanced_consistent_json() {
        let report = fixture_report();
        let parsed = json::parse(&report.to_json().encode()).expect("fixture json parses");
        assert_eq!(parsed, report.to_json());
        let scenarios = parsed
            .get("scenarios")
            .and_then(|s| s.as_arr())
            .expect("scenarios array");
        let names: Vec<_> = scenarios
            .iter()
            .filter_map(|s| s.get("scenario").and_then(Json::as_str))
            .collect();
        assert_eq!(names, ["probe_mix", "ingest_probe_watch", "tenant_churn"]);
        let durable = &scenarios[1];
        assert_eq!(durable.get("wal_acked_appends"), Some(&count(19)));
        assert_eq!(durable.get("wal_syncs"), Some(&count(19)));
        assert!(!report.summary().is_empty());
    }
}
