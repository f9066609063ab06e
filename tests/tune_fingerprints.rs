//! Golden fingerprints of `SeamlessTuner::tune`.
//!
//! Each scenario tunes the Table I trio (wordcount@tiny, pagerank@small,
//! bayes@DS1) in order on one fresh service, so later tunes also see
//! the history and transfer donations of earlier ones. The fingerprint
//! hashes every stage-1 and stage-2 observation: the configuration's
//! `Display` form and the exact bits of its runtime. Outcomes are a pure
//! function of the seed, so any change to sampling, encoding, candidate
//! scoring or the session loop that moves a single proposal or RNG draw
//! changes a fingerprint. The values were recorded before the candidate
//! pools moved to index-addressed points and must hold at any
//! `SEAMLESS_THREADS` (BO acquisition is chunked over worker threads).
//! The clustered-donor value was recorded on the 16-shard history store
//! before it became one log; its two passes over the trio cover the
//! cluster index's first build, its absorbs and a rebuild. The batch-8
//! BayesOpt value was re-recorded when `TransferTuner` began forwarding
//! whole batches to the strategy it wraps (its later tenants run under
//! transfer); the clustered batch-8 value was recorded then and pins
//! that path with clustered donors.

use std::fmt::Write as _;
use std::sync::Arc;

use seamless_tuning::prelude::*;

/// FNV-1a, 64-bit: stable across platforms and runs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Tunes the trio `passes` times under `config` (the same tenants
/// again on every pass) and hashes both stages' histories.
fn fingerprint(config: ServiceConfig, seed: u64, passes: u64) -> u64 {
    let service = SeamlessTuner::new(
        Arc::new(HistoryStore::new()),
        SimEnvironment::dedicated(seed),
        config,
    );
    let jobs = [
        ("wordcount", Wordcount::new().job(DataScale::Tiny)),
        ("pagerank", Pagerank::new().job(DataScale::Small)),
        ("bayes", BayesClassifier::new().job(DataScale::Ds1)),
    ];
    let mut trace = String::new();
    for pass in 0..passes {
        for (i, (name, job)) in jobs.iter().enumerate() {
            let tune_seed = seed + pass * jobs.len() as u64 + i as u64;
            let out = service.tune(&format!("tenant-{i}"), name, job, tune_seed);
            for (stage, history) in [(1, &out.stage1.history), (2, &out.stage2.history)] {
                for o in history {
                    writeln!(
                        trace,
                        "{name}/{stage} {} {:016x}",
                        o.config,
                        o.runtime_s.to_bits()
                    )
                    .expect("write to String");
                }
            }
        }
    }
    fnv1a(trace.as_bytes())
}

#[test]
fn default_config_fingerprints_are_pinned() {
    let got: Vec<u64> = [1, 2, 3]
        .iter()
        .map(|&seed| fingerprint(ServiceConfig::default(), seed, 1))
        .collect();
    assert_eq!(
        got,
        vec![0x17d544e52e04849c, 0x171e3d56ab00a35c, 0xfbea811ba30e3e5e],
        "default-config fingerprints moved"
    );
}

#[test]
fn batched_bayesopt_fingerprint_is_pinned() {
    let config = ServiceConfig {
        tuner: TunerKind::BayesOpt,
        batch: 8,
        ..ServiceConfig::default()
    };
    assert_eq!(
        fingerprint(config, 11, 1),
        0x57f532bec0f94f5d,
        "batch-8 BayesOpt fingerprint moved"
    );
}

#[test]
fn random_search_fingerprint_is_pinned() {
    let config = ServiceConfig {
        tuner: TunerKind::Random,
        ..ServiceConfig::default()
    };
    assert_eq!(
        fingerprint(config, 5, 1),
        0xa09fb168bc20a387,
        "random-search fingerprint moved"
    );
}

#[test]
fn clustered_donors_fingerprint_is_pinned() {
    let config = ServiceConfig {
        clustered_donors: true,
        ..ServiceConfig::default()
    };
    let got: Vec<u64> = [7, 8]
        .iter()
        .map(|&seed| fingerprint(config, seed, 2))
        .collect();
    assert_eq!(
        got,
        vec![0x7b319d05a9d6e0cd, 0x9c56058d30e2baaa],
        "clustered-donor fingerprints moved"
    );
}

#[test]
fn clustered_batched_transfer_fingerprint_is_pinned() {
    let config = ServiceConfig {
        tuner: TunerKind::BayesOpt,
        batch: 8,
        clustered_donors: true,
        ..ServiceConfig::default()
    };
    assert_eq!(
        fingerprint(config, 13, 2),
        0x1a01808e75dfd99e,
        "clustered batch-8 transfer fingerprint moved"
    );
}
