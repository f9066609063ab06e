//! The batch-execution equivalence contract: the session loop at batch
//! size 1 must reproduce the strictly sequential propose→evaluate loop
//! *bitwise*, for every strategy — batching is a performance feature,
//! never a behavioural one. Larger batches must stay valid and deterministic,
//! and the multi-tenant `tune_many` must match sequential `tune` calls
//! whenever tenants cannot observe each other (transfer disabled).

use std::sync::Arc;

use confspace::{Configuration, ParamDef, ParamSpace};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use seamless_core::objective::{DiscObjective, Objective, SimEnvironment};
use seamless_core::service::TenantRequest;
use seamless_core::tuner::{Tuner, TunerKind, TuningSession};
use seamless_core::{
    FaultInjector, FaultPlan, HistoryStore, Observation, RetryPolicy, SeamlessTuner, ServiceConfig,
    TransferTuner, TrialExecutor, TrialOutcome,
};
use simcluster::ClusterSpec;
use workloads::{DataScale, Wordcount, Workload};

fn synth_space() -> ParamSpace {
    ParamSpace::new()
        .with(ParamDef::int("a", 0, 100, 50, ""))
        .with(ParamDef::int("b", 0, 100, 50, ""))
}

fn synth_eval(cfg: &Configuration) -> f64 {
    let a = cfg.int("a") as f64;
    let b = cfg.int("b") as f64;
    10.0 + ((a - 70.0) / 10.0).powi(2) + ((b - 30.0) / 10.0).powi(2)
}

fn push(history: &mut Vec<Observation>, cfg: Configuration) {
    history.push(Observation {
        runtime_s: synth_eval(&cfg),
        config: cfg,
        cost_usd: 0.0,
        metrics: None,
        failure: None,
    });
}

#[test]
fn propose_batch_q1_matches_propose_for_every_tuner() {
    let space = synth_space();
    for kind in TunerKind::all() {
        let mut seq_tuner = kind.build();
        let mut batch_tuner = kind.build();
        let mut seq_rng = StdRng::seed_from_u64(17);
        let mut batch_rng = StdRng::seed_from_u64(17);
        let mut seq_hist = Vec::new();
        let mut batch_hist = Vec::new();
        for i in 0..20 {
            let a = seq_tuner.propose(&space, &seq_hist, &mut seq_rng);
            let batch = batch_tuner.propose_batch(&space, &batch_hist, 1, &mut batch_rng);
            assert_eq!(batch.len(), 1, "{}: q=1 batch length", kind.label());
            assert_eq!(
                a,
                batch[0],
                "{}: proposal {i} diverges at q=1",
                kind.label()
            );
            push(&mut seq_hist, a);
            push(&mut batch_hist, batch[0].clone());
        }
    }
}

fn synth_obs(a: i64, b: i64) -> Observation {
    let config = Configuration::new().with("a", a).with("b", b);
    Observation {
        runtime_s: synth_eval(&config),
        config,
        cost_usd: 0.0,
        metrics: None,
        failure: None,
    }
}

#[test]
fn transfer_propose_batch_q1_matches_propose_for_every_tuner() {
    let space = synth_space();
    // The donation claims (0, 100) is best; (70, 30) really is.
    let donated = vec![
        Observation {
            runtime_s: 1.0,
            ..synth_obs(0, 100)
        },
        Observation {
            runtime_s: 9.0,
            ..synth_obs(50, 50)
        },
        Observation {
            runtime_s: 30.0,
            ..synth_obs(100, 0)
        },
    ];
    let near_probe: Vec<Observation> = [(2, 98), (5, 95), (8, 90), (70, 30), (68, 32)]
        .iter()
        .map(|&(a, b)| synth_obs(a, b))
        .collect();
    // Each state with the history its first round hands the inner
    // strategy: none while the probe is pending (the probe is the
    // proposal), the unscaled donation plus one real run once the probe
    // is done, and the real runs alone once the guard dropped the
    // donation.
    let mut seen_after_probe = donated.clone();
    seen_after_probe.push(synth_obs(0, 100));
    let states = [
        ("probe pending", vec![synth_obs(40, 40)], None),
        (
            "probe done",
            vec![synth_obs(0, 100)],
            Some(seen_after_probe),
        ),
        ("donation dropped", near_probe.clone(), Some(near_probe)),
    ];
    for kind in TunerKind::all() {
        for (state, history, inner_sees) in &states {
            // The first proposal against the sequential reference.
            let mut ref_rng = StdRng::seed_from_u64(29);
            let expected = match inner_sees {
                None => donated[0].config.clone(),
                Some(seen) => kind.build().propose(&space, seen, &mut ref_rng),
            };
            let mut seq = TransferTuner::new(kind.build(), donated.clone());
            let mut batched = TransferTuner::new(kind.build(), donated.clone());
            let mut seq_rng = StdRng::seed_from_u64(29);
            let mut batch_rng = StdRng::seed_from_u64(29);
            let mut seq_hist = history.clone();
            let mut batch_hist = history.clone();
            for i in 0..4 {
                let a = seq.propose(&space, &seq_hist, &mut seq_rng);
                let batch = batched.propose_batch(&space, &batch_hist, 1, &mut batch_rng);
                let draw = seq_rng.next_u64();
                assert_eq!(
                    batch,
                    vec![a.clone()],
                    "{}, {state}: proposal {i}",
                    kind.label()
                );
                assert_eq!(
                    draw,
                    batch_rng.next_u64(),
                    "{}, {state}: RNG after proposal {i}",
                    kind.label()
                );
                if i == 0 {
                    assert_eq!(a, expected, "{}, {state}: first proposal", kind.label());
                    assert_eq!(
                        draw,
                        ref_rng.next_u64(),
                        "{}, {state}: RNG after the first proposal",
                        kind.label()
                    );
                    assert_eq!(
                        batched.donation_active(),
                        *state != "donation dropped",
                        "{}, {state}: guard verdict",
                        kind.label()
                    );
                }
                assert_eq!(seq.donation_active(), batched.donation_active());
                push(&mut seq_hist, a);
                push(&mut batch_hist, batch[0].clone());
            }
        }
    }
}

#[test]
fn propose_batch_q4_is_valid_and_deterministic() {
    let space = synth_space();
    for kind in TunerKind::all() {
        let run = || {
            let mut tuner = kind.build();
            let mut rng = StdRng::seed_from_u64(23);
            let mut history = Vec::new();
            let mut all = Vec::new();
            for _ in 0..4 {
                let batch = tuner.propose_batch(&space, &history, 4, &mut rng);
                assert_eq!(batch.len(), 4, "{}: q=4 batch length", kind.label());
                for cfg in &batch {
                    assert!(
                        space.validate(cfg).is_ok(),
                        "{}: invalid batch proposal {cfg}",
                        kind.label()
                    );
                }
                for cfg in batch {
                    all.push(cfg.clone());
                    push(&mut history, cfg);
                }
            }
            all
        };
        assert_eq!(run(), run(), "{}: q=4 not deterministic", kind.label());
    }
}

fn disc_objective(seed: u64) -> DiscObjective {
    DiscObjective::new(
        ClusterSpec::table1_testbed(),
        Wordcount::new().job(DataScale::Tiny),
        &SimEnvironment::dedicated(seed),
    )
}

#[test]
fn run_at_batch_1_is_bitwise_identical_to_the_propose_evaluate_loop() {
    for kind in TunerKind::all() {
        // Reference: the bare sequential loop on the session's seed.
        let mut tuner = kind.build();
        let mut rng = StdRng::seed_from_u64(31);
        let mut ref_obj = disc_objective(7);
        let mut reference: Vec<Observation> = Vec::new();
        for _ in 0..6 {
            let cfg = tuner.propose(ref_obj.space(), &reference, &mut rng);
            reference.push(ref_obj.evaluate(&cfg));
        }

        let mut session = TuningSession::new(kind, 31);
        let mut obj = disc_objective(7);
        let out = session.run(&mut obj, 6, 1);

        assert!(out.degradation.is_none(), "{}: plain session", kind.label());
        assert_eq!(
            reference.len(),
            out.history.len(),
            "{}: history length",
            kind.label()
        );
        for (i, (a, b)) in reference.iter().zip(&out.history).enumerate() {
            assert_eq!(a.config, b.config, "{}: config {i}", kind.label());
            assert_eq!(
                a.runtime_s.to_bits(),
                b.runtime_s.to_bits(),
                "{}: runtime {i} not bitwise equal",
                kind.label()
            );
            assert_eq!(
                a.cost_usd.to_bits(),
                b.cost_usd.to_bits(),
                "{}: cost {i} not bitwise equal",
                kind.label()
            );
        }
    }
}

#[test]
fn resilient_session_at_batch_1_keeps_its_retry_policy_and_injector() {
    let mut session = TuningSession::new(TunerKind::Random, 5);
    session.with_resilience(
        RetryPolicy::default(),
        FaultInjector::new(9, FaultPlan::errors(1.0)),
    );
    let mut obj = disc_objective(3);
    let out = session.run(&mut obj, 4, 1);

    let d = out
        .degradation
        .expect("a resilient session reports degradation at batch 1");
    assert_eq!(d.failed, 4, "every attempt of every trial was injected");
    assert!(out.is_degraded());
    assert_eq!(out.history.len(), 4);
    assert!(
        out.history.iter().all(Observation::is_censored),
        "injected failures enter the history censored"
    );
    assert_eq!(obj.evaluations(), 0, "no trial reached the objective");
}

#[test]
fn larger_batches_are_deterministic_and_fill_the_budget() {
    for batch in [2usize, 4, 8] {
        let run = || {
            let mut session = TuningSession::new(TunerKind::BayesOpt, 43);
            let mut obj = disc_objective(11);
            session.run(&mut obj, 12, batch)
        };
        let a = run();
        let b = run();
        assert_eq!(a.history.len(), 12, "batch {batch}: budget not honoured");
        for (x, y) in a.history.iter().zip(&b.history) {
            assert_eq!(x.config, y.config, "batch {batch}: configs diverge");
            assert_eq!(
                x.runtime_s.to_bits(),
                y.runtime_s.to_bits(),
                "batch {batch}: runtimes diverge"
            );
        }
        assert!(a.best.is_some(), "batch {batch}: no best found");
    }
}

/// A synthetic objective that *panics* on part of its space — the
/// hostile version of a faulty execution substrate.
struct FaultyObjective {
    space: ParamSpace,
}

impl Objective for FaultyObjective {
    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn evaluate(&mut self, config: &Configuration) -> Observation {
        self.evaluate_trial(config, 0)
    }

    fn evaluate_trial(&self, config: &Configuration, trial_seed: u64) -> Observation {
        let a = config.int("a");
        assert!(a <= 90, "substrate crash on a > 90");
        Observation {
            runtime_s: synth_eval(config) + (trial_seed % 7) as f64 * 1e-3,
            config: config.clone(),
            cost_usd: 0.0,
            metrics: None,
            failure: None,
        }
    }
}

/// The partition-invariance contract must survive a faulty objective:
/// panicking trials become `Failed` outcomes (never a torn round), and
/// splitting the same configs across differently sized batches yields
/// identical outcomes — including which trials failed.
#[test]
fn faulty_objective_outcomes_are_invariant_to_batch_partitioning() {
    let obj = FaultyObjective {
        space: synth_space(),
    };
    // A fixed mix of healthy and crashing configurations.
    let configs: Vec<Configuration> = (0..12)
        .map(|i| {
            Configuration::new()
                .with("a", (i * 9) as i64) // i = 11 → a = 99 crashes
                .with("b", 30i64)
        })
        .collect();

    let run_split = |chunk: usize| -> Vec<TrialOutcome> {
        let mut ex = TrialExecutor::new(7);
        configs
            .chunks(chunk)
            .flat_map(|c| ex.run_trials(&obj, c))
            .collect()
    };
    let whole = run_split(12);
    assert_eq!(whole, run_split(4));
    assert_eq!(whole, run_split(1));

    let failed: Vec<usize> = whole
        .iter()
        .enumerate()
        .filter(|(_, o)| !o.is_ok())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(failed, vec![11], "exactly the a>90 trial crashes");
    assert!(matches!(
        &whole[11],
        TrialOutcome::Failed { .. } | TrialOutcome::TimedOut { .. }
    ));
    // The healthy trials' observations are untouched by the crash.
    for (i, o) in whole.iter().enumerate() {
        if i != 11 {
            let observation = o.observation().expect("healthy trial");
            assert!(observation.runtime_s.is_finite());
            assert!(observation.failure.is_none());
        }
    }
}

#[test]
fn tune_many_matches_sequential_tunes_when_tenants_are_isolated() {
    // With transfer disabled the store is write-only during tuning, so
    // concurrent tenants cannot influence each other: tune_many must
    // produce exactly the outcomes of sequential tune calls.
    let config = ServiceConfig {
        stage1_budget: 3,
        stage2_budget: 4,
        transfer_k: 0,
        ..ServiceConfig::default()
    };
    let requests: Vec<TenantRequest> = (0..4)
        .map(|i| TenantRequest {
            client: format!("tenant-{i}"),
            workload: "wc".to_owned(),
            job: Wordcount::new().job(DataScale::Tiny),
            seed: 100 + i as u64,
        })
        .collect();

    let seq_svc = SeamlessTuner::new(
        Arc::new(HistoryStore::new()),
        SimEnvironment::dedicated(3),
        config,
    );
    let seq: Vec<_> = requests
        .iter()
        .map(|r| seq_svc.tune(&r.client, &r.workload, &r.job, r.seed))
        .collect();

    let par_svc = SeamlessTuner::new(
        Arc::new(HistoryStore::new()),
        SimEnvironment::dedicated(3),
        config,
    );
    let par = par_svc.tune_many(&requests);

    assert_eq!(seq.len(), par.len());
    for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
        assert_eq!(s.cloud_config, p.cloud_config, "tenant {i}: cloud config");
        assert_eq!(s.disc_config, p.disc_config, "tenant {i}: disc config");
        assert_eq!(
            s.best_runtime_s.to_bits(),
            p.best_runtime_s.to_bits(),
            "tenant {i}: best runtime not bitwise equal"
        );
    }
    // Both services witnessed the same number of executions.
    assert_eq!(seq_svc.store().len(), par_svc.store().len());
}

#[test]
fn batched_service_tuning_still_finds_a_working_config() {
    let svc = SeamlessTuner::new(
        Arc::new(HistoryStore::new()),
        SimEnvironment::dedicated(19),
        ServiceConfig {
            stage1_budget: 4,
            stage2_budget: 8,
            batch: 4,
            ..ServiceConfig::default()
        },
    );
    let out = svc.tune("batched", "wc", &Wordcount::new().job(DataScale::Tiny), 2);
    assert!(out.best_runtime_s.is_finite() && out.best_runtime_s > 0.0);
    assert_eq!(out.stage1.history.len(), 4);
    assert_eq!(out.stage2.history.len(), 8);
}
