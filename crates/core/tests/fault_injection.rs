//! Chaos suite: deterministic fault injection driven end-to-end through
//! the resilient executor, the tuning session, and the history store.
//!
//! Every scenario here is reproducible from its seeds alone — the fault
//! stream is a pure function of `(injector seed, global trial index,
//! attempt)` — so a failing run can be replayed exactly. `scripts/ci.sh`
//! re-runs this suite under different `SEAMLESS_THREADS` settings: the
//! outcomes must not change.

use std::sync::Arc;

use confspace::Configuration;
use rand::rngs::StdRng;
use rand::SeedableRng;
use seamless_core::objective::{DiscObjective, Objective, SimEnvironment};
use seamless_core::tuner::{TunerKind, TuningOutcome, TuningSession};
use seamless_core::{
    FaultInjector, FaultPlan, HistoryStore, RecordOutcome, RetryPolicy, SeamlessTuner,
    ServiceConfig, TrialExecutor,
};
use simcluster::ClusterSpec;
use workloads::{DataScale, Wordcount, Workload};

fn disc_objective(seed: u64) -> DiscObjective {
    DiscObjective::new(
        ClusterSpec::table1_testbed(),
        Wordcount::new().job(DataScale::Tiny),
        &SimEnvironment::dedicated(seed),
    )
}

fn chaos_session(chaos_seed: u64) -> TuningOutcome {
    let mut session = TuningSession::new(TunerKind::BayesOpt, 19);
    session.with_resilience(
        RetryPolicy::default(),
        FaultInjector::new(chaos_seed, FaultPlan::chaos()),
    );
    let mut obj = disc_objective(4);
    session.run(&mut obj, 20, 4)
}

/// The headline scenario: the default chaos mix (10% errors, 2% hangs,
/// 5% stragglers, 3% poisoned metrics) leaves the session convergent,
/// and the whole run — proposals, observations, degradation report — is
/// deterministic per chaos seed.
#[test]
fn chaos_session_converges_and_is_deterministic_per_seed() {
    let a = chaos_session(1234);
    let b = chaos_session(1234);

    assert!(a.best.is_some(), "chaos must not prevent convergence");
    let best = a.best.as_ref().unwrap();
    assert!(!best.is_censored(), "the incumbent must be a real run");
    assert!(best.runtime_s.is_finite() && best.runtime_s > 0.0);

    let d = a
        .degradation
        .expect("resilient sessions report degradation");
    assert_eq!(
        d.completed + d.failed + d.timed_out,
        a.history.len(),
        "every trial is accounted for"
    );
    assert!(d.completed > 0);

    // Bitwise reproducibility of the full trace.
    assert_eq!(a.history.len(), b.history.len());
    for (x, y) in a.history.iter().zip(&b.history) {
        assert_eq!(x.config, y.config);
        assert_eq!(x.runtime_s.to_bits(), y.runtime_s.to_bits());
        assert_eq!(x.failure, y.failure);
    }
    assert_eq!(a.degradation, b.degradation);

    // A different chaos seed perturbs a different set of trials.
    let c = chaos_session(4321);
    let same_faults = a.degradation == c.degradation
        && a.history
            .iter()
            .zip(&c.history)
            .all(|(x, y)| x.failure == y.failure);
    assert!(!same_faults, "the chaos seed must drive the fault stream");
}

/// The zero-fault injector is a bitwise no-op: a resilient session with
/// the default policy and `FaultInjector::none` replays the plain
/// batched session exactly — resilience must cost nothing when nothing
/// fails. (Batch 1 non-resilient takes the sequential `run()` path by
/// contract, so the comparison is made where both sides run on the
/// executor; the executor's own batch-1 no-op equivalence is covered in
/// its unit tests.)
#[test]
fn zero_fault_injector_is_bitwise_identical_to_no_injector() {
    for batch in [2usize, 4] {
        let mut plain_session = TuningSession::new(TunerKind::BayesOpt, 77);
        let mut plain_obj = disc_objective(9);
        let plain = plain_session.run(&mut plain_obj, 12, batch);

        let mut noop_session = TuningSession::new(TunerKind::BayesOpt, 77);
        noop_session.with_resilience(RetryPolicy::default(), FaultInjector::none());
        let mut noop_obj = disc_objective(9);
        let noop = noop_session.run(&mut noop_obj, 12, batch);

        assert_eq!(plain.history.len(), noop.history.len(), "batch {batch}");
        for (i, (x, y)) in plain.history.iter().zip(&noop.history).enumerate() {
            assert_eq!(x.config, y.config, "batch {batch}: config {i}");
            assert_eq!(
                x.runtime_s.to_bits(),
                y.runtime_s.to_bits(),
                "batch {batch}: runtime {i}"
            );
            assert_eq!(
                x.cost_usd.to_bits(),
                y.cost_usd.to_bits(),
                "batch {batch}: cost {i}"
            );
            assert_eq!(x.metrics, y.metrics, "batch {batch}: metrics {i}");
        }
        let d = noop.degradation.expect("still reports (clean) degradation");
        assert!(!d.degraded(), "no injector, no degradation");
        assert_eq!(d.retries, 0);
    }
}

/// A 10%-and-up failure rate with retries disabled floods the session
/// with censored observations; it must still converge to a real
/// incumbent and report the damage honestly.
#[test]
fn failures_without_retries_still_converge_with_degradation_report() {
    let mut session = TuningSession::new(TunerKind::BayesOpt, 5);
    session.with_resilience(
        RetryPolicy {
            max_attempts: 1, // no retries: every injected error is terminal
            ..RetryPolicy::default()
        },
        FaultInjector::new(99, FaultPlan::errors(0.25)),
    );
    let mut obj = disc_objective(13);
    let out = session.run(&mut obj, 24, 4);

    let d = out.degradation.expect("degradation report");
    assert!(d.failed > 0, "the fault stream must have landed: {d:?}");
    assert!(d.degraded());
    assert!(out.is_degraded());
    let censored = out.history.iter().filter(|o| o.is_censored()).count();
    assert_eq!(censored, d.failed + d.timed_out);

    let best = out.best.expect("survivors still yield an incumbent");
    assert!(!best.is_censored());
    assert!(best.runtime_s.is_finite() && best.runtime_s > 0.0);
}

/// A permanent straggler (a trial that hangs on every attempt) is
/// reaped by the per-trial deadline, its configuration is quarantined,
/// and the session keeps going.
#[test]
fn permanent_straggler_is_quarantined_and_session_survives() {
    let plan = FaultPlan {
        permanent_straggler: Some(3),
        ..FaultPlan::none()
    };
    let mut session = TuningSession::new(TunerKind::Random, 7);
    session.with_resilience(
        RetryPolicy {
            quarantine_after: 1,
            ..RetryPolicy::default()
        },
        FaultInjector::new(2, plan),
    );
    let mut obj = disc_objective(21);
    let out = session.run(&mut obj, 12, 4);

    let d = out.degradation.expect("degradation report");
    assert_eq!(d.timed_out, 1, "exactly trial #3 hangs: {d:?}");
    assert_eq!(d.quarantined, 1, "one strike quarantines the config");
    assert!(out.best.is_some());
    assert_eq!(
        out.history.iter().filter(|o| o.is_censored()).count(),
        1,
        "only the straggler is censored"
    );
}

/// A round whose failures blow the failure budget ends the session
/// early with a *partial* outcome instead of burning the rest of the
/// budget against a broken substrate.
#[test]
fn exhausted_failure_budget_returns_partial_outcome() {
    let mut session = TuningSession::new(TunerKind::Random, 3);
    session.with_resilience(
        RetryPolicy {
            max_attempts: 1,
            round_failure_budget: 1, // >1 failures per round aborts
            ..RetryPolicy::default()
        },
        FaultInjector::new(8, FaultPlan::errors(1.0)), // everything fails
    );
    let mut obj = disc_objective(17);
    let out = session.run(&mut obj, 40, 8);

    let d = out.degradation.expect("degradation report");
    assert!(d.budget_exhausted, "session must stop early: {d:?}");
    assert!(
        out.history.len() < 40,
        "partial outcome: only {} of 40 trials ran",
        out.history.len()
    );
    assert!(out.best.is_none(), "nothing survived a 100% error rate");
    assert!(out.is_degraded());
}

/// Poisoned telemetry (NaN / negative durations) is rejected at two
/// layers: the executor censors the trial, and the history store
/// refuses any record that slips through — so the provider's history
/// never contains a non-finite or negative runtime.
#[test]
fn poisoned_metrics_never_reach_the_history_store() {
    let store = Arc::new(HistoryStore::new());
    let svc = SeamlessTuner::new(
        store.clone(),
        SimEnvironment::dedicated(23),
        ServiceConfig {
            stage1_budget: 3,
            stage2_budget: 6,
            chaos: Some(FaultInjector::new(31, FaultPlan::poison(0.3))),
            ..ServiceConfig::default()
        },
    );
    let out = svc.tune(
        "chaos-tenant",
        "wc",
        &Wordcount::new().job(DataScale::Tiny),
        1,
    );
    assert!(out.best_runtime_s.is_finite() && out.best_runtime_s > 0.0);
    assert!(!store.is_empty());
    for r in store.snapshot() {
        assert!(
            r.runtime_s.is_finite() && r.runtime_s >= 0.0,
            "poisoned runtime {} reached the store",
            r.runtime_s
        );
        assert!(r.cost_usd.is_finite() && r.cost_usd >= 0.0);
    }
}

/// The history-write failure path: a record carrying poisoned durations
/// is rejected by `insert` (counted on the obs registry), and a JSONL
/// shard containing such a line loads lossily — dropping exactly the
/// poisoned record — while the strict loader refuses the whole shard.
#[test]
fn history_shard_rejects_poisoned_writes() {
    use seamless_core::{ExecutionRecord, WorkloadSignature};
    let store = HistoryStore::new();
    let record = |runtime_s: f64| ExecutionRecord {
        client: "c".into(),
        workload: "w".into(),
        signature: WorkloadSignature::from_metrics(&Default::default()),
        config: Configuration::new().with("p", 1i64),
        runtime_s,
        cost_usd: 0.1,
        seq: 0,
        outcome: RecordOutcome::Ok,
    };
    let rejects_before = obs::registry().counter("history.rejects").get();
    assert!(store.insert(record(10.0)).is_ok());
    assert!(store.insert(record(f64::NAN)).is_err());
    assert!(store.insert(record(-5.0)).is_err());
    assert_eq!(store.len(), 1, "rejected writes must not land");
    assert!(
        obs::registry().counter("history.rejects").get() >= rejects_before + 2,
        "rejections are observable"
    );

    // The surviving shard round-trips; a poisoned line (rebuilt through
    // the value model with a -inf runtime) does not.
    let mut dump = store.to_jsonl().expect("serializes");
    let clean_lines = dump.lines().count();
    let v: serde::Value = serde_json::from_str(dump.lines().next().unwrap()).expect("parses");
    let serde::Value::Object(pairs) = v else {
        panic!("record serializes as an object");
    };
    let bad: Vec<(String, serde::Value)> = pairs
        .into_iter()
        .map(|(k, val)| {
            if k == "runtime_s" {
                (k, serde::Value::F64(f64::NEG_INFINITY))
            } else {
                (k, val)
            }
        })
        .collect();
    dump.push_str(&serde_json::to_string(&serde::Value::Object(bad)).expect("serializes"));
    dump.push('\n');
    let (lossy, skipped) = HistoryStore::from_jsonl_lossy(&dump);
    assert_eq!(lossy.len(), clean_lines);
    assert_eq!(skipped, 1);
    assert!(HistoryStore::from_jsonl(&dump).is_err());
}

/// Fault decisions key off the *global* trial index, so executor
/// outcomes under chaos are invariant to how a round is partitioned
/// into batches (for distinct configurations — quarantine updates are
/// round-granular by design).
#[test]
fn chaos_outcomes_are_invariant_to_batch_partitioning() {
    use confspace::{Sampler, UniformSampler};
    let obj = disc_objective(29);
    let mut rng = StdRng::seed_from_u64(61);
    let configs: Vec<Configuration> = (0..12)
        .map(|_| UniformSampler.sample(obj.space(), &mut rng))
        .collect();
    let injector = FaultInjector::new(314, FaultPlan::chaos());
    let policy = RetryPolicy::default();

    let mut whole = TrialExecutor::new(42).with_resilience(policy, injector);
    let all = whole.run_trials(&obj, &configs);

    let mut split = TrialExecutor::new(42).with_resilience(policy, injector);
    let mut parts = Vec::new();
    for chunk in configs.chunks(4) {
        parts.extend(split.run_trials(&obj, chunk));
    }

    assert_eq!(all, parts, "batch partitioning changed chaos outcomes");
}
