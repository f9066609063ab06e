//! The provider-side multi-tenant execution-history store.
//!
//! §IV-C: "The cloud is a centralized place that is able to keep a
//! record of the different workloads' execution history under different
//! cloud and DISC system configurations, across users. This data can
//! only be leveraged by the cloud provider." This module is that
//! record: a concurrent, append-only store of execution records with
//! signature-based similarity queries.
//!
//! Layout: one append-only log behind one reader-writer lock. A
//! record's sequence number is its position in the log, assigned under
//! the write lock, so every record a reader can count it can also read.
//! Readers that only need *new* records pass the position they have
//! read up to to [`HistoryStore::records_since`] instead of cloning the
//! whole log with [`HistoryStore::snapshot`], which remains the cold
//! path for persistence and tests.

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use confspace::Configuration;

use crate::characterize::WorkloadSignature;

/// How the execution behind a record ended. Non-`Ok` records exist for
/// bookkeeping (degradation audits, quarantine forensics) but are
/// excluded from similarity queries and transfer — a censored penalty
/// runtime must never masquerade as a measured one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub enum RecordOutcome {
    /// The run completed and its runtime is a measurement.
    #[default]
    Ok,
    /// The trial was aborted by the execution harness after retries.
    Failed,
    /// The trial exceeded its deadline and was killed.
    TimedOut,
}

// Manual impl (the offline serde shim has no `#[serde(default)]`):
// records persisted before outcomes existed carry no `outcome` key,
// which the derive surfaces as `Null` — treat that as `Ok`.
impl serde::Deserialize for RecordOutcome {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Null => Ok(RecordOutcome::Ok),
            serde::Value::Str(s) => match s.as_str() {
                "Ok" => Ok(RecordOutcome::Ok),
                "Failed" => Ok(RecordOutcome::Failed),
                "TimedOut" => Ok(RecordOutcome::TimedOut),
                other => Err(serde::DeError::new(format!(
                    "unknown variant `{other}` for RecordOutcome"
                ))),
            },
            other => Err(serde::DeError::new(format!(
                "expected RecordOutcome variant, found {}",
                other.kind()
            ))),
        }
    }
}

/// One execution record as the provider sees it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionRecord {
    /// Opaque tenant identifier.
    pub client: String,
    /// Opaque workload label (the provider does not know the "name" of
    /// a tenant's job; this stands in for a stable job identity such as
    /// a jar hash — used only for bookkeeping, never for similarity).
    pub workload: String,
    /// Characterization signature of the run.
    pub signature: WorkloadSignature,
    /// The configuration used (cloud and/or DISC parameters).
    pub config: Configuration,
    /// Observed runtime (s).
    pub runtime_s: f64,
    /// Dollar cost of the run.
    pub cost_usd: f64,
    /// Position in the store's log (assigned by the store).
    pub seq: u64,
    /// How the execution ended (pre-outcome records load as `Ok`).
    pub outcome: RecordOutcome,
}

impl ExecutionRecord {
    /// Rejects poisoned numeric fields (NaN, infinite or negative
    /// runtime/cost) so corrupt telemetry never enters the store.
    pub fn validate(&self) -> Result<(), String> {
        if !self.runtime_s.is_finite() || self.runtime_s < 0.0 {
            return Err(format!(
                "rejecting record: poisoned runtime {}",
                self.runtime_s
            ));
        }
        if !self.cost_usd.is_finite() || self.cost_usd < 0.0 {
            return Err(format!("rejecting record: poisoned cost {}", self.cost_usd));
        }
        Ok(())
    }
}

/// A concurrent multi-tenant history store.
#[derive(Debug, Default)]
pub struct HistoryStore {
    /// Every record in insertion order; `records[i].seq == i`.
    records: RwLock<Vec<ExecutionRecord>>,
}

impl HistoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record after validating it, assigning its sequence
    /// number (its position in the log). Poisoned records (NaN/negative
    /// runtime or cost) are rejected with a reason and counted under
    /// `history.rejects`.
    ///
    /// # Errors
    ///
    /// Returns the validation failure without mutating the store.
    pub fn insert(&self, mut record: ExecutionRecord) -> Result<u64, String> {
        let reg = obs::registry();
        if let Err(why) = record.validate() {
            reg.counter("history.rejects").inc();
            return Err(why);
        }
        reg.counter("history.inserts").inc();
        Ok(reg.histogram("history.insert_s").time(|| {
            let mut records = self.records.write();
            let seq = records.len() as u64;
            record.seq = seq;
            records.push(record);
            reg.gauge("history.records").set(records.len() as f64);
            seq
        }))
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.read().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All records, cloned, in sequence order. This is the cold path
    /// (persistence, offline analysis); concurrent readers on the
    /// tuning hot path should use [`HistoryStore::records_since`].
    pub fn snapshot(&self) -> Vec<ExecutionRecord> {
        self.records.read().clone()
    }

    /// Clones every record from sequence number `from` on, in sequence
    /// order. A reader that passes the number of records it has read so
    /// far sees each record exactly once across successive calls.
    pub fn records_since(&self, from: usize) -> Vec<ExecutionRecord> {
        let records = self.records.read();
        records.get(from..).unwrap_or_default().to_vec()
    }

    /// The `k` records most similar to `query` (by signature distance),
    /// optionally excluding one tenant (so a client's own runs don't
    /// masquerade as transfer). Distance ties go to the earlier record.
    ///
    /// Scores every record without cloning it, then clones only the
    /// `k` winners, all under one read guard.
    pub fn most_similar(
        &self,
        query: &WorkloadSignature,
        k: usize,
        exclude_client: Option<&str>,
    ) -> Vec<ExecutionRecord> {
        let reg = obs::registry();
        reg.counter("history.queries").inc();
        reg.histogram("history.query_s").time(|| {
            let records = self.records.read();
            let mut scored: Vec<(f64, usize)> = records
                .iter()
                .enumerate()
                // Censored runs never transfer: their penalty runtime
                // is an artifact, not a measurement.
                .filter(|(_, r)| {
                    r.outcome == RecordOutcome::Ok && exclude_client.is_none_or(|c| r.client != c)
                })
                .map(|(i, r)| (query.distance(&r.signature), i))
                .collect();
            scored.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            scored
                .into_iter()
                .take(k)
                .map(|(_, i)| records[i].clone())
                .collect()
        })
    }

    /// Best known runtime among similar records — the reference point
    /// for "within X% of the runtime of similar workloads ever run in
    /// the cloud" (§IV-D).
    pub fn best_similar_runtime(&self, query: &WorkloadSignature, k: usize) -> Option<f64> {
        self.most_similar(query, k, None)
            .into_iter()
            .map(|r| r.runtime_s)
            .min_by(f64::total_cmp)
    }

    /// All records for one tenant's workload label, in sequence order.
    pub fn for_workload(&self, client: &str, workload: &str) -> Vec<ExecutionRecord> {
        self.records
            .read()
            .iter()
            .filter(|r| r.client == client && r.workload == workload)
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcluster::{ExecMetrics, StageMetrics};

    fn sig(cpu: f64, io: f64) -> WorkloadSignature {
        let m = ExecMetrics {
            runtime_s: 100.0,
            stages: vec![StageMetrics {
                name: "s".into(),
                cpu_s: cpu,
                io_s: io,
                ..Default::default()
            }],
            input_mb: 1000.0,
            shuffle_mb: 100.0,
            ..Default::default()
        };
        WorkloadSignature::from_metrics(&m)
    }

    fn record(client: &str, cpu: f64, runtime: f64) -> ExecutionRecord {
        ExecutionRecord {
            client: client.to_owned(),
            workload: "job".to_owned(),
            signature: sig(cpu, 100.0 - cpu),
            config: Configuration::new().with("p", 1i64),
            runtime_s: runtime,
            cost_usd: 1.0,
            seq: 0,
            outcome: RecordOutcome::Ok,
        }
    }

    #[test]
    fn insert_assigns_sequence_numbers() {
        let store = HistoryStore::new();
        assert_eq!(store.insert(record("a", 50.0, 10.0)), Ok(0));
        assert_eq!(store.insert(record("a", 50.0, 11.0)), Ok(1));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn most_similar_ranks_by_signature_distance() {
        let store = HistoryStore::new();
        store.insert(record("a", 90.0, 10.0)).expect("valid record"); // cpu-heavy
        store.insert(record("b", 10.0, 10.0)).expect("valid record"); // io-heavy
        let near_cpu = store.most_similar(&sig(85.0, 15.0), 1, None);
        assert_eq!(near_cpu.len(), 1);
        assert_eq!(near_cpu[0].client, "a");
    }

    #[test]
    fn most_similar_breaks_distance_ties_by_seq() {
        let store = HistoryStore::new();
        // Identical signatures: the earlier insertion must win.
        store
            .insert(record("first", 50.0, 1.0))
            .expect("valid record");
        store
            .insert(record("second", 50.0, 2.0))
            .expect("valid record");
        let top = store.most_similar(&sig(50.0, 50.0), 1, None);
        assert_eq!(top[0].client, "first");
    }

    #[test]
    fn exclusion_filters_a_tenant() {
        let store = HistoryStore::new();
        store.insert(record("a", 90.0, 10.0)).expect("valid record");
        store.insert(record("b", 89.0, 20.0)).expect("valid record");
        let r = store.most_similar(&sig(90.0, 10.0), 5, Some("a"));
        assert!(r.iter().all(|x| x.client == "b"));
    }

    #[test]
    fn best_similar_runtime_is_the_fastest_neighbour() {
        let store = HistoryStore::new();
        store.insert(record("a", 90.0, 30.0)).expect("valid record");
        store.insert(record("b", 88.0, 12.0)).expect("valid record");
        store.insert(record("c", 87.0, 25.0)).expect("valid record");
        assert_eq!(store.best_similar_runtime(&sig(89.0, 11.0), 3), Some(12.0));
    }

    #[test]
    fn for_workload_scopes_by_client_and_label() {
        let store = HistoryStore::new();
        store.insert(record("a", 50.0, 10.0)).expect("valid record");
        let mut other = record("a", 50.0, 10.0);
        other.workload = "other".to_owned();
        store.insert(other).expect("valid record");
        store.insert(record("b", 50.0, 10.0)).expect("valid record");
        assert_eq!(store.for_workload("a", "job").len(), 1);
    }

    #[test]
    fn records_since_sees_each_record_exactly_once() {
        let store = HistoryStore::new();
        assert!(store.records_since(0).is_empty());
        // Rounds of interleaved tenants, read between rounds: every
        // record comes back exactly once, in insertion order.
        let mut read: Vec<ExecutionRecord> = Vec::new();
        for round in 0..6 {
            for i in 0..=round {
                let client = format!("c{}", (round * 7 + i) % 11);
                store
                    .insert(record(&client, 40.0, (round * 10 + i) as f64))
                    .expect("valid record");
            }
            let fresh = store.records_since(read.len());
            assert_eq!(fresh.len(), round + 1);
            read.extend(fresh);
            assert!(store.records_since(read.len()).is_empty());
        }
        let snap = store.snapshot();
        assert_eq!(read, snap);
        for (i, r) in snap.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn insert_rejects_poisoned_durations() {
        let store = HistoryStore::new();
        let mut nan = record("a", 50.0, 10.0);
        nan.runtime_s = f64::NAN;
        assert!(store.insert(nan).is_err());
        let mut neg = record("a", 50.0, 10.0);
        neg.runtime_s = -3.0;
        assert!(store.insert(neg).is_err());
        let mut bad_cost = record("a", 50.0, 10.0);
        bad_cost.cost_usd = f64::NEG_INFINITY;
        assert!(store.insert(bad_cost).is_err());
        assert!(store.is_empty(), "rejected records must not enter");
        assert!(store.insert(record("a", 50.0, 10.0)).is_ok());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn similarity_skips_censored_records() {
        let store = HistoryStore::new();
        let mut aborted = record("a", 90.0, 86_400.0);
        aborted.outcome = RecordOutcome::Failed;
        store.insert(aborted).expect("valid record");
        let mut reaped = record("b", 90.0, 86_400.0);
        reaped.outcome = RecordOutcome::TimedOut;
        store.insert(reaped).expect("valid record");
        store.insert(record("c", 10.0, 20.0)).expect("valid record"); // far but healthy
        let top = store.most_similar(&sig(90.0, 10.0), 3, None);
        assert_eq!(top.len(), 1, "censored records must not transfer");
        assert_eq!(top[0].client, "c");
        assert_eq!(store.best_similar_runtime(&sig(90.0, 10.0), 3), Some(20.0));
    }

    #[test]
    fn store_is_shareable_across_threads() {
        use std::sync::Arc;
        let store = Arc::new(HistoryStore::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    s.insert(record(&format!("t{t}"), 50.0, i as f64))
                        .expect("valid record");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 100);
        let snap = store.snapshot();
        let mut seqs: Vec<u64> = snap.iter().map(|r| r.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 100, "sequence numbers must be unique");
    }
}

/// JSON-lines persistence: the provider's execution history must
/// outlive any single process (§IV-C: "a centralized place that is
/// able to keep a record … across users").
impl HistoryStore {
    /// Serializes every record as one JSON object per line, in
    /// sequence order.
    ///
    /// # Errors
    ///
    /// Returns any serialization error (I/O is the caller's: write the
    /// returned string wherever the deployment keeps state).
    pub fn to_jsonl(&self) -> Result<String, serde_json::Error> {
        let mut out = String::new();
        for r in self.snapshot() {
            out.push_str(&serde_json::to_string(&r)?);
            out.push('\n');
        }
        Ok(out)
    }

    /// Rebuilds a store from [`HistoryStore::to_jsonl`] output.
    /// Sequence numbers are reassigned in line order.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line's parse error.
    pub fn from_jsonl(data: &str) -> Result<Self, serde_json::Error> {
        let store = HistoryStore::new();
        for line in data.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let record: ExecutionRecord = serde_json::from_str(line)?;
            store
                .insert(record)
                .map_err(|why| serde::DeError::new(why).into())
                .map_err(|e: serde_json::Error| e)?;
        }
        Ok(store)
    }

    /// Like [`HistoryStore::from_jsonl`], but skips malformed lines
    /// instead of failing the whole load — one poisoned record must not
    /// take the multi-tenant store down. Returns the store and the
    /// number of lines skipped.
    pub fn from_jsonl_lossy(data: &str) -> (Self, usize) {
        let store = HistoryStore::new();
        let mut skipped = 0usize;
        for line in data.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<ExecutionRecord>(line) {
                // Validation failures (poisoned runtime/cost) count as
                // skipped too — a NaN smuggled into a stored line must
                // not re-enter the live store.
                Ok(record) => match store.insert(record) {
                    Ok(_) => {}
                    Err(_) => skipped += 1,
                },
                Err(_) => skipped += 1,
            }
        }
        if skipped > 0 {
            obs::registry()
                .counter("history.load_skipped")
                .add(skipped as u64);
        }
        (store, skipped)
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use crate::characterize::WorkloadSignature;
    use simcluster::ExecMetrics;

    fn record(i: usize) -> ExecutionRecord {
        ExecutionRecord {
            client: format!("c{i}"),
            workload: "job".to_owned(),
            signature: WorkloadSignature::from_metrics(&ExecMetrics {
                runtime_s: 10.0 + i as f64,
                input_mb: 100.0,
                ..Default::default()
            }),
            config: Configuration::new().with("p", i as i64),
            runtime_s: 10.0 + i as f64,
            cost_usd: 0.5,
            seq: 0,
            outcome: RecordOutcome::Ok,
        }
    }

    #[test]
    fn jsonl_roundtrip_preserves_records() {
        let store = HistoryStore::new();
        for i in 0..5 {
            store.insert(record(i)).expect("valid record");
        }
        let dump = store.to_jsonl().expect("serializes");
        assert_eq!(dump.lines().count(), 5);
        let restored = HistoryStore::from_jsonl(&dump).expect("parses");
        assert_eq!(restored.len(), 5);
        assert_eq!(restored.snapshot()[3].client, "c3");
        assert_eq!(restored.snapshot()[3].seq, 3);
    }

    #[test]
    fn blank_lines_are_ignored_and_garbage_rejected() {
        let store = HistoryStore::from_jsonl("\n\n").expect("empty ok");
        assert!(store.is_empty());
        assert!(HistoryStore::from_jsonl("not json\n").is_err());
    }

    #[test]
    fn lossy_load_skips_poisoned_lines() {
        let store = HistoryStore::new();
        for i in 0..3 {
            store.insert(record(i)).expect("valid record");
        }
        let mut dump = store.to_jsonl().expect("serializes");
        dump.push_str("{\"this is\": \"not a record\"}\n");
        dump.push_str("not even json\n");
        let (restored, skipped) = HistoryStore::from_jsonl_lossy(&dump);
        assert_eq!(restored.len(), 3);
        assert_eq!(skipped, 2);
    }

    #[test]
    fn lossy_load_skips_poisoned_runtimes() {
        let store = HistoryStore::new();
        store.insert(record(0)).expect("valid record");
        let mut dump = store.to_jsonl().expect("serializes");
        // A line that parses but carries a poisoned runtime must be
        // dropped at ingestion, not stored.
        let line = dump.lines().next().expect("one line");
        let v: serde::Value = serde_json::from_str(line).expect("parses as value");
        let serde::Value::Object(pairs) = v else {
            panic!("record must serialize as an object");
        };
        let poisoned: Vec<(String, serde::Value)> = pairs
            .into_iter()
            .map(|(k, val)| {
                if k == "runtime_s" {
                    (k, serde::Value::F64(-10.0))
                } else {
                    (k, val)
                }
            })
            .collect();
        dump.push_str(&serde_json::to_string(&serde::Value::Object(poisoned)).expect("serializes"));
        dump.push('\n');
        let (restored, skipped) = HistoryStore::from_jsonl_lossy(&dump);
        assert_eq!(restored.len(), 1);
        assert_eq!(skipped, 1);
        // The strict loader refuses the whole file instead.
        assert!(HistoryStore::from_jsonl(&dump).is_err());
    }

    #[test]
    fn records_without_outcome_field_load_as_ok() {
        let store = HistoryStore::new();
        store.insert(record(0)).expect("valid record");
        let dump = store.to_jsonl().expect("serializes");
        // Strip the outcome key to simulate a pre-outcome JSONL file.
        let line = dump.lines().next().expect("one line");
        let v: serde::Value = serde_json::from_str(line).expect("parses as value");
        let serde::Value::Object(pairs) = v else {
            panic!("record must serialize as an object");
        };
        let stripped: Vec<(String, serde::Value)> =
            pairs.into_iter().filter(|(k, _)| k != "outcome").collect();
        let legacy = serde_json::to_string(&serde::Value::Object(stripped)).expect("serializes");
        assert!(!legacy.contains("outcome"));
        let restored = HistoryStore::from_jsonl(&legacy).expect("legacy line loads");
        assert_eq!(restored.snapshot()[0].outcome, RecordOutcome::Ok);
    }

    #[test]
    fn outcome_tags_roundtrip() {
        let store = HistoryStore::new();
        let mut r = record(0);
        r.outcome = RecordOutcome::TimedOut;
        store.insert(r).expect("valid record");
        let dump = store.to_jsonl().expect("serializes");
        let restored = HistoryStore::from_jsonl(&dump).expect("parses");
        assert_eq!(restored.snapshot()[0].outcome, RecordOutcome::TimedOut);
    }

    #[test]
    fn restored_store_answers_similarity_queries() {
        let store = HistoryStore::new();
        for i in 0..4 {
            store.insert(record(i)).expect("valid record");
        }
        let dump = store.to_jsonl().expect("serializes");
        let restored = HistoryStore::from_jsonl(&dump).expect("parses");
        let q = record(0).signature;
        assert_eq!(restored.most_similar(&q, 2, None).len(), 2);
    }
}
