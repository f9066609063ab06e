//! Transfer learning across workloads (§V-B): warm-start a tuner with
//! observations donated from similar workloads in the provider's
//! history, guarded against *negative transfer* (Ge et al. \[17\]).
//!
//! The donated observations are rescaled to the target's runtime
//! magnitude (the correlation between configuration and performance is
//! what transfers, not absolute runtimes) and are revalidated once real
//! observations accumulate: if the donated ranking disagrees with the
//! observed ranking, the donation is dropped.

use confspace::{Configuration, ParamSpace};
use rand::RngCore;

use crate::history::{ExecutionRecord, HistoryStore};
use crate::objective::Observation;
use crate::tuner::Tuner;
use crate::WorkloadSignature;

/// Builds warm-start observations for a target workload: among the
/// `3k` most similar records of other tenants, donate the `k`
/// *fastest* (similarity routes to the right neighbourhood; quality
/// decides what is worth imitating), rescaled so their median runtime
/// matches `target_scale_s`.
pub fn donated_observations(
    store: &HistoryStore,
    query: &WorkloadSignature,
    k: usize,
    exclude_client: Option<&str>,
    target_scale_s: f64,
) -> Vec<Observation> {
    let _span = obs::span("donor_search").with("k", k);
    let mut records = store.most_similar(query, 3 * k, exclude_client);
    records.sort_by(|a, b| a.runtime_s.total_cmp(&b.runtime_s));
    records.truncate(k);
    obs::registry()
        .counter("transfer.donations")
        .add(records.len() as u64);
    if records.is_empty() {
        return Vec::new();
    }
    let mut runtimes: Vec<f64> = records.iter().map(|r| r.runtime_s).collect();
    runtimes.sort_by(f64::total_cmp);
    let median = runtimes[runtimes.len() / 2].max(1e-9);
    let scale = target_scale_s / median;
    records
        .into_iter()
        .map(|r| Observation {
            config: r.config,
            runtime_s: r.runtime_s * scale,
            cost_usd: 0.0,
            metrics: None,
            failure: None,
        })
        .collect()
}

/// Converts donated records directly (no rescaling) — used when the
/// donor and target are known to share a size regime.
pub fn records_to_observations(records: Vec<ExecutionRecord>) -> Vec<Observation> {
    records
        .into_iter()
        .map(|r| Observation {
            config: r.config,
            runtime_s: r.runtime_s,
            cost_usd: 0.0,
            metrics: None,
            failure: None,
        })
        .collect()
}

/// A tuner wrapper injecting donated observations into the history its
/// inner strategy sees — with a rank-agreement guard that drops the
/// donation if it turns out to mislead (negative transfer).
pub struct TransferTuner {
    inner: Box<dyn Tuner>,
    donated: Vec<Observation>,
    /// Real observations required before validating the donation.
    validate_after: usize,
    validated: bool,
}

impl TransferTuner {
    /// Wraps `inner`, donating `donated` observations.
    pub fn new(inner: Box<dyn Tuner>, donated: Vec<Observation>) -> Self {
        TransferTuner {
            inner,
            donated,
            validate_after: 5,
            validated: false,
        }
    }

    /// Whether the donation is still active.
    pub fn donation_active(&self) -> bool {
        !self.donated.is_empty()
    }

    /// Kendall-style rank agreement between donated predictions and
    /// real observations over configs present in both… donated configs
    /// are rarely re-evaluated exactly, so the guard instead checks that
    /// the donated *best* region is not observed to be bad: if the real
    /// runs nearest (in config space) to the donated best are slower
    /// than the real median, the donation is judged misleading.
    fn donation_misleads(&self, space: &ParamSpace, real: &[Observation]) -> bool {
        let Some(donated_best) = self
            .donated
            .iter()
            .min_by(|a, b| a.runtime_s.total_cmp(&b.runtime_s))
        else {
            return false;
        };
        let ok: Vec<&Observation> = real.iter().filter(|o| o.is_ok()).collect();
        if ok.len() < 3 {
            return false;
        }
        let q = space.encode(&donated_best.config);
        let mut by_dist: Vec<&&Observation> = ok.iter().collect();
        by_dist.sort_by(|a, b| {
            models::stats::dist(&space.encode(&a.config), &q)
                .total_cmp(&models::stats::dist(&space.encode(&b.config), &q))
        });
        let near_mean = models::stats::mean(
            &by_dist
                .iter()
                .take(3)
                .map(|o| o.runtime_s)
                .collect::<Vec<_>>(),
        );
        let Some(observed_best) = ok.iter().map(|o| o.runtime_s).min_by(f64::total_cmp) else {
            return false;
        };
        // The donation claimed its best region; if the real runs nearest
        // to that region are far slower than the best we've actually
        // seen, the donated surface points the wrong way.
        near_mean > observed_best * 2.0
    }
}

impl Tuner for TransferTuner {
    fn name(&self) -> &str {
        "transfer"
    }

    fn propose(
        &mut self,
        space: &ParamSpace,
        history: &[Observation],
        rng: &mut dyn RngCore,
    ) -> Configuration {
        if !self.validated && history.len() >= self.validate_after {
            if self.donation_misleads(space, history) {
                self.donated.clear();
            }
            self.validated = true;
        }

        // Probe the donated incumbent first: the single cheapest way to
        // cash in a similar workload's tuning knowledge.
        if let Some(donated_best) = self
            .donated
            .iter()
            .filter(|o| o.is_ok())
            .min_by(|a, b| a.runtime_s.total_cmp(&b.runtime_s))
        {
            if !history.iter().any(|o| o.config == donated_best.config) {
                return donated_best.config.clone();
            }
        }

        // Align the donated runtimes to the target's observed scale so
        // the inner surrogate is not fitting two offset populations.
        let real_ok: Vec<f64> = history
            .iter()
            .filter(|o| o.is_ok())
            .map(|o| o.runtime_s)
            .collect();
        let donated_ok: Vec<f64> = self
            .donated
            .iter()
            .filter(|o| o.is_ok())
            .map(|o| o.runtime_s)
            .collect();
        let scale = if real_ok.len() >= 2 && !donated_ok.is_empty() {
            models::stats::median(&real_ok) / models::stats::median(&donated_ok).max(1e-9)
        } else {
            1.0
        };
        let augmented: Vec<Observation> = self
            .donated
            .iter()
            .map(|o| {
                let mut d = o.clone();
                if d.is_ok() {
                    d.runtime_s *= scale;
                }
                d
            })
            .chain(history.iter().cloned())
            .collect();
        self.inner.propose(space, &augmented, rng)
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.validated = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::BayesOpt;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> ParamSpace {
        ParamSpace::new().with(confspace::ParamDef::int("a", 0, 100, 50, ""))
    }

    fn obs(space: &ParamSpace, a: i64, runtime: f64) -> Observation {
        Observation {
            config: space.default_configuration().with("a", a),
            runtime_s: runtime,
            cost_usd: 0.0,
            metrics: None,
            failure: None,
        }
    }

    #[test]
    fn good_donation_steers_early_proposals() {
        let s = space();
        // Donor says: small `a` is fast.
        let donated: Vec<Observation> = (0..8)
            .map(|i| obs(&s, i * 12, 10.0 + (i * 12) as f64))
            .collect();
        let mut t = TransferTuner::new(Box::new(BayesOpt::new()), donated);
        let mut rng = StdRng::seed_from_u64(1);
        // With 8 donated points the BO warm-up is already satisfied, so
        // the first proposal is model-guided.
        let c = t.propose(&s, &[], &mut rng);
        assert!(c.int("a") <= 40, "should exploit the donated trend: {c}");
    }

    #[test]
    fn misleading_donation_is_dropped() {
        let s = space();
        // Donor claims a=0 is best…
        let donated = vec![obs(&s, 0, 1.0), obs(&s, 100, 100.0)];
        let mut t = TransferTuner::new(Box::new(crate::tuner::RandomSearch), donated);
        let mut rng = StdRng::seed_from_u64(2);
        // …but real observations near a=0 are slow, far ones fast.
        let real = vec![
            obs(&s, 2, 500.0),
            obs(&s, 5, 480.0),
            obs(&s, 10, 470.0),
            obs(&s, 90, 10.0),
            obs(&s, 95, 12.0),
        ];
        assert!(t.donation_active());
        let _ = t.propose(&s, &real, &mut rng);
        assert!(!t.donation_active(), "negative transfer should be dropped");
    }

    #[test]
    fn consistent_donation_is_kept() {
        let s = space();
        let donated = vec![obs(&s, 0, 1.0), obs(&s, 100, 100.0)];
        let mut t = TransferTuner::new(Box::new(crate::tuner::RandomSearch), donated);
        let mut rng = StdRng::seed_from_u64(3);
        let real = vec![
            obs(&s, 2, 11.0),
            obs(&s, 5, 12.0),
            obs(&s, 10, 15.0),
            obs(&s, 90, 80.0),
            obs(&s, 95, 90.0),
        ];
        let _ = t.propose(&s, &real, &mut rng);
        assert!(t.donation_active());
    }

    #[test]
    fn donated_observations_rescale_to_target() {
        use crate::history::{ExecutionRecord, HistoryStore};
        use simcluster::ExecMetrics;
        let store = HistoryStore::new();
        let sig = WorkloadSignature::from_metrics(&ExecMetrics::default());
        for runtime in [100.0, 200.0, 300.0] {
            store
                .insert(ExecutionRecord {
                    client: "donor".into(),
                    workload: "w".into(),
                    signature: sig.clone(),
                    config: Configuration::new().with("a", 1i64),
                    runtime_s: runtime,
                    cost_usd: 0.0,
                    seq: 0,
                    outcome: crate::history::RecordOutcome::Ok,
                })
                .expect("valid record");
        }
        let donated = donated_observations(&store, &sig, 3, None, 20.0);
        assert_eq!(donated.len(), 3);
        // Median (200) maps to 20.
        let mut rts: Vec<f64> = donated.iter().map(|o| o.runtime_s).collect();
        rts.sort_by(f64::total_cmp);
        assert!((rts[1] - 20.0).abs() < 1e-9);
    }
}

/// AROMA-style clustered history (§II-B, §V-B): k-medoids over the
/// store's workload signatures, with per-cluster donor lookup. Building
/// per-cluster models (instead of one global pool) keeps donations from
/// workloads with a different bottleneck profile out of the warm start.
#[derive(Debug, Clone)]
pub struct ClusteredHistory {
    medoids: Vec<WorkloadSignature>,
    members: Vec<Vec<ExecutionRecord>>,
}

impl ClusteredHistory {
    /// Clusters `records` into `k` signature groups.
    ///
    /// # Panics
    ///
    /// Panics when fewer records than `k` are given.
    pub fn build_from_records(
        records: Vec<ExecutionRecord>,
        k: usize,
        rng: &mut dyn rand::RngCore,
    ) -> Self {
        assert!(
            records.len() >= k,
            "need at least k={k} records, got {}",
            records.len()
        );
        let points: Vec<Vec<f64>> = records
            .iter()
            .map(|r| r.signature.features().to_vec())
            .collect();
        let clustering = models::k_medoids(&points, k, 20, rng);
        let medoids: Vec<WorkloadSignature> = clustering
            .medoids
            .iter()
            .map(|&i| records[i].signature.clone())
            .collect();
        let mut members: Vec<Vec<ExecutionRecord>> = vec![Vec::new(); k];
        for (i, r) in records.into_iter().enumerate() {
            members[clustering.assignment[i]].push(r);
        }
        ClusteredHistory { medoids, members }
    }

    /// Assigns new records to their nearest existing medoid without
    /// re-clustering (medoids drift is handled by the caller's periodic
    /// full rebuild).
    pub fn absorb(&mut self, fresh: impl IntoIterator<Item = ExecutionRecord>) {
        for r in fresh {
            let c = self.assign(&r.signature);
            self.members[c].push(r);
        }
    }

    /// Total records across all clusters.
    pub fn len_records(&self) -> usize {
        self.members.iter().map(Vec::len).sum()
    }

    /// Consumes the clustering, returning every member record.
    pub fn into_records(self) -> Vec<ExecutionRecord> {
        self.members.into_iter().flatten().collect()
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.medoids.len()
    }

    /// Index of the cluster nearest to `sig`.
    pub fn assign(&self, sig: &WorkloadSignature) -> usize {
        self.medoids
            .iter()
            .enumerate()
            .min_by(|a, b| sig.distance(a.1).total_cmp(&sig.distance(b.1)))
            .map_or(0, |(i, _)| i)
    }

    /// The fastest `limit` records from `sig`'s cluster — the donor set
    /// for a warm start.
    pub fn donors_for(&self, sig: &WorkloadSignature, limit: usize) -> Vec<ExecutionRecord> {
        let c = self.assign(sig);
        let mut records = self.members[c].clone();
        records.sort_by(|a, b| a.runtime_s.total_cmp(&b.runtime_s));
        records.truncate(limit);
        records
    }

    /// The records of cluster `c`.
    pub fn cluster_members(&self, c: usize) -> &[ExecutionRecord] {
        &self.members[c]
    }
}

/// A shared, incrementally maintained [`ClusteredHistory`] over a
/// [`HistoryStore`].
///
/// The old clustered-donor path re-clustered the *entire* store snapshot
/// on every tune — O(store) per tenant, the definition of a hot-path
/// clone. `ClusterIndex` instead reads only records appended since its
/// last query (via [`HistoryStore::records_since`]), absorbs them into
/// the existing clusters, and re-clusters from scratch only when the
/// history has doubled since the last build — amortized O(1) snapshots
/// per insert.
#[derive(Debug)]
pub struct ClusterIndex {
    k: usize,
    /// Records required before the first clustering is attempted.
    min_records: usize,
    state: parking_lot::Mutex<ClusterIndexState>,
}

#[derive(Debug, Default)]
struct ClusterIndexState {
    clusters: Option<ClusteredHistory>,
    /// Store records read so far (the next `records_since` position).
    read: usize,
    /// Records not yet clustered (pre-build accumulation only).
    pending: Vec<ExecutionRecord>,
    /// Records clustered at the last full rebuild.
    built_at: usize,
}

impl ClusterIndex {
    /// Creates an index that clusters into `k` groups once `min_records`
    /// records have accumulated.
    pub fn new(k: usize, min_records: usize) -> Self {
        ClusterIndex {
            k: k.max(1),
            min_records: min_records.max(k),
            state: parking_lot::Mutex::new(ClusterIndexState::default()),
        }
    }

    /// Donor records for `sig`, fastest first, absorbing any records
    /// appended to `store` since the last call. Falls back to flat
    /// nearest-neighbour search while the history is too small to
    /// cluster. `seed` drives the (deterministic) k-medoids restarts
    /// when a rebuild is due.
    pub fn donors_for(
        &self,
        store: &HistoryStore,
        sig: &WorkloadSignature,
        limit: usize,
        seed: u64,
    ) -> Vec<ExecutionRecord> {
        use rand::SeedableRng;
        let reg = obs::registry();
        let st = &mut *self.state.lock();
        // Censored runs (aborted/timed-out trials) never enter the
        // clustering: their penalty runtimes would distort medoids and
        // they carry no transferable signal — mirrors the filter in
        // [`HistoryStore::most_similar`].
        let fresh = store.records_since(st.read);
        st.read += fresh.len();
        st.pending.extend(
            fresh
                .into_iter()
                .filter(|r| r.outcome == crate::history::RecordOutcome::Ok),
        );

        let total = st
            .clusters
            .as_ref()
            .map_or(0, ClusteredHistory::len_records)
            + st.pending.len();
        let rebuild_due = match &st.clusters {
            None => total >= self.min_records,
            // Absorbed growth has doubled the clustered set: medoids
            // are stale, re-cluster from scratch.
            Some(_) => total >= 2 * st.built_at.max(1),
        };
        if rebuild_due && total >= self.k {
            let mut all: Vec<ExecutionRecord> = match st.clusters.take() {
                Some(c) => c.into_records(),
                None => Vec::new(),
            };
            all.append(&mut st.pending);
            all.sort_by_key(|r| r.seq);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            st.built_at = all.len();
            st.clusters = Some(ClusteredHistory::build_from_records(all, self.k, &mut rng));
            reg.counter("transfer.cluster_rebuilds").inc();
        } else if let Some(clusters) = st.clusters.as_mut() {
            if !st.pending.is_empty() {
                reg.counter("transfer.cluster_absorbed")
                    .add(st.pending.len() as u64);
                clusters.absorb(std::mem::take(&mut st.pending));
            }
        }

        match &st.clusters {
            Some(clusters) => clusters.donors_for(sig, limit),
            // Too little history to cluster: flat similarity search.
            None => store.most_similar(sig, limit, None),
        }
    }
}

#[cfg(test)]
mod clustered_tests {
    use super::*;
    use simcluster::{ExecMetrics, StageMetrics};

    fn sig(cpu: f64, net: f64) -> WorkloadSignature {
        WorkloadSignature::from_metrics(&ExecMetrics {
            runtime_s: 50.0,
            stages: vec![StageMetrics {
                name: "s".into(),
                cpu_s: cpu,
                net_s: net,
                io_s: 100.0 - cpu - net,
                ..Default::default()
            }],
            input_mb: 1000.0,
            ..Default::default()
        })
    }

    fn record(cpu: f64, net: f64, runtime: f64) -> ExecutionRecord {
        ExecutionRecord {
            client: "c".into(),
            workload: "w".into(),
            signature: sig(cpu, net),
            config: Configuration::new().with("p", runtime as i64),
            runtime_s: runtime,
            cost_usd: 0.0,
            seq: 0,
            outcome: crate::history::RecordOutcome::Ok,
        }
    }

    fn two_regime_store() -> HistoryStore {
        let store = HistoryStore::new();
        for i in 0..8 {
            store
                .insert(record(90.0, 5.0, 20.0 + i as f64))
                .expect("valid record"); // cpu-bound
            store
                .insert(record(10.0, 80.0, 50.0 + i as f64))
                .expect("valid record"); // net-bound
        }
        store
    }

    #[test]
    fn clusters_separate_bottleneck_regimes() {
        let store = two_regime_store();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        use rand::SeedableRng;
        let ch = ClusteredHistory::build_from_records(store.snapshot(), 2, &mut rng);
        assert_eq!(ch.k(), 2);
        let cpu_cluster = ch.assign(&sig(85.0, 8.0));
        let net_cluster = ch.assign(&sig(15.0, 75.0));
        assert_ne!(cpu_cluster, net_cluster);
        // Every member of the cpu cluster is cpu-bound (runtime < 40).
        assert!(ch
            .cluster_members(cpu_cluster)
            .iter()
            .all(|r| r.runtime_s < 40.0));
    }

    #[test]
    fn donors_come_from_the_right_cluster_fastest_first() {
        let store = two_regime_store();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        use rand::SeedableRng;
        let ch = ClusteredHistory::build_from_records(store.snapshot(), 2, &mut rng);
        let donors = ch.donors_for(&sig(88.0, 6.0), 3);
        assert_eq!(donors.len(), 3);
        assert!(donors.windows(2).all(|w| w[0].runtime_s <= w[1].runtime_s));
        assert!(donors.iter().all(|r| r.runtime_s < 40.0));
    }

    /// `(built_at, clustered records)` once the index has built, `None`
    /// while it still answers with the flat search.
    fn index_state(index: &ClusterIndex) -> Option<(usize, usize)> {
        let st = index.state.lock();
        st.clusters.as_ref().map(|c| (st.built_at, c.len_records()))
    }

    fn cpu_query() -> WorkloadSignature {
        sig(88.0, 6.0)
    }

    #[test]
    fn index_falls_back_to_flat_search_below_min_records() {
        let store = HistoryStore::new();
        for i in 0..5 {
            store
                .insert(record(90.0, 5.0, 20.0 + i as f64))
                .expect("valid record");
        }
        let index = ClusterIndex::new(2, 6);
        let donors = index.donors_for(&store, &cpu_query(), 3, 1);
        assert_eq!(donors, store.most_similar(&cpu_query(), 3, None));
        assert_eq!(index_state(&index), None);
    }

    #[test]
    fn index_builds_once_min_records_exist() {
        let store = HistoryStore::new();
        for i in 0..3 {
            store
                .insert(record(90.0, 5.0, 20.0 + i as f64))
                .expect("valid record");
            store
                .insert(record(10.0, 80.0, 50.0 + i as f64))
                .expect("valid record");
        }
        let index = ClusterIndex::new(2, 6);
        let donors = index.donors_for(&store, &cpu_query(), 2, 1);
        assert_eq!(index_state(&index), Some((6, 6)));
        // Clustered donors: the query's cluster only, fastest first.
        let runtimes: Vec<f64> = donors.iter().map(|r| r.runtime_s).collect();
        assert_eq!(runtimes, vec![20.0, 21.0]);
    }

    #[test]
    fn index_absorbs_new_records_without_rebuilding() {
        let store = HistoryStore::new();
        for i in 0..3 {
            store
                .insert(record(90.0, 5.0, 20.0 + i as f64))
                .expect("valid record");
            store
                .insert(record(10.0, 80.0, 50.0 + i as f64))
                .expect("valid record");
        }
        let index = ClusterIndex::new(2, 6);
        index.donors_for(&store, &cpu_query(), 2, 1);
        store.insert(record(89.0, 6.0, 5.0)).expect("valid record");
        store
            .insert(record(11.0, 79.0, 45.0))
            .expect("valid record");
        let donors = index.donors_for(&store, &cpu_query(), 2, 1);
        assert_eq!(index_state(&index), Some((6, 8)), "absorbed, not rebuilt");
        // The absorbed cpu-bound record joined the query's cluster.
        assert_eq!(donors[0].runtime_s, 5.0);
        // A call with nothing new changes nothing.
        index.donors_for(&store, &cpu_query(), 2, 1);
        assert_eq!(index_state(&index), Some((6, 8)));
    }

    #[test]
    fn index_rebuilds_when_ok_records_double() {
        let store = HistoryStore::new();
        for i in 0..3 {
            store
                .insert(record(90.0, 5.0, 20.0 + i as f64))
                .expect("valid record");
            store
                .insert(record(10.0, 80.0, 50.0 + i as f64))
                .expect("valid record");
        }
        let index = ClusterIndex::new(2, 6);
        index.donors_for(&store, &cpu_query(), 2, 1);
        for i in 0..5 {
            store
                .insert(record(90.0, 5.0, 30.0 + i as f64))
                .expect("valid record");
        }
        index.donors_for(&store, &cpu_query(), 2, 1);
        assert_eq!(index_state(&index), Some((6, 11)));
        store
            .insert(record(10.0, 80.0, 60.0))
            .expect("valid record");
        index.donors_for(&store, &cpu_query(), 2, 1);
        assert_eq!(index_state(&index), Some((12, 12)), "doubled: rebuilt");
    }

    #[test]
    fn index_never_clusters_censored_records() {
        let censored = |cpu: f64, net: f64, outcome| ExecutionRecord {
            outcome,
            ..record(cpu, net, 86_400.0)
        };
        let store = HistoryStore::new();
        for i in 0..3 {
            store
                .insert(record(90.0, 5.0, 20.0 + i as f64))
                .expect("valid record");
            store
                .insert(censored(90.0, 5.0, crate::history::RecordOutcome::Failed))
                .expect("valid record");
            store
                .insert(censored(
                    10.0,
                    80.0,
                    crate::history::RecordOutcome::TimedOut,
                ))
                .expect("valid record");
        }
        let index = ClusterIndex::new(2, 6);
        index.donors_for(&store, &cpu_query(), 2, 1);
        assert_eq!(index_state(&index), None, "censored records do not count");
        for i in 0..3 {
            store
                .insert(record(10.0, 80.0, 50.0 + i as f64))
                .expect("valid record");
        }
        index.donors_for(&store, &cpu_query(), 2, 1);
        assert_eq!(index_state(&index), Some((6, 6)));
        // Six censored records later the Ok count has not doubled.
        for _ in 0..6 {
            store
                .insert(censored(90.0, 5.0, crate::history::RecordOutcome::Failed))
                .expect("valid record");
        }
        let donors = index.donors_for(&store, &cpu_query(), 10, 1);
        assert_eq!(index_state(&index), Some((6, 6)));
        assert!(donors
            .iter()
            .all(|r| r.outcome == crate::history::RecordOutcome::Ok));
    }

    #[test]
    #[should_panic(expected = "need at least k")]
    fn too_few_records_panics() {
        let store = HistoryStore::new();
        store
            .insert(record(50.0, 20.0, 10.0))
            .expect("valid record");
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        use rand::SeedableRng;
        let _ = ClusteredHistory::build_from_records(store.snapshot(), 4, &mut rng);
    }
}
