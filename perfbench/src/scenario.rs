//! The benchmark's workloads. Each builds its inputs from the workload
//! seed and drives the service only through its public API
//! (`SeamlessTuner::tune` / `tune_many`). All three are closed loops:
//! the client submits its next call only after the previous returns.

use std::sync::Arc;
use std::time::Instant;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use seamless_core::{
    FaultInjector, FaultPlan, HistoryStore, SeamlessTuner, ServiceConfig, ServiceOutcome,
    SimEnvironment, TenantRequest, TunerKind,
};
use workloads::DataScale;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["bo-stream", "sim-sweep", "warm-provider"];

/// Rounds of the random-search provider that generates the
/// `warm-provider` history: 4 rounds of its 14 tenants leave about
/// 1700 records. The first round after a restart pays a k-medoids build
/// over them, whose cost grows with the square of the history and
/// varies about twofold with the build's random restarts.
const HISTORY_ROUNDS: u64 = 4;

/// Rounds a restarted `warm-provider` serves before the next restart:
/// few enough that the history never doubles (which would trigger a
/// second, larger build), and one round in five pays the build, so the
/// p90 latency is the median build round rather than a boundary value.
const WARM_PROVIDER_ROUNDS: usize = 5;

/// The seven registered workloads `warm-provider` draws from.
const ALL_SEVEN: [&str; 7] = [
    "wordcount",
    "terasort",
    "pagerank",
    "bayes",
    "kmeans",
    "sqljoin",
    "logistic",
];

/// Tenants per `tune_many` round.
const SIM_SWEEP_TENANTS: usize = 2;
const WARM_PROVIDER_TENANTS: usize = 8;

/// Salts separating the seed streams a workload derives from its seed.
const SALT_ENV: u64 = 0x0E57;
const SALT_CHAOS: u64 = 0xC4A0;
const SALT_TUNE: u64 = 0x7E5E;
const SALT_PICK: u64 = 0x91C4;
const SALT_WARMUP: u64 = 0x3A7E;

/// Seed of the `warm-provider` history. The history is a fixed fixture,
/// the same for every workload seed: a restarting provider reloads *its*
/// history, and the quality metrics' spread from seed to seed was twice
/// as wide when each seed generated its own (the donors decide how fast
/// transfer converges). The seed still drives all traffic.
const HISTORY_SEED: u64 = 0x4157;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Sequential default-config `tune` calls over the Table I trio.
    BoStream,
    /// Two-tenant `tune_many` rounds of batched random search on large
    /// inputs, under the chaos fault mix.
    SimSweep,
    /// A provider restarting on loaded history: eight-tenant batched
    /// BayesOpt rounds with clustered transfer.
    WarmProvider,
}

/// One recurring tenant: a client name bound to one job.
struct Tenant {
    client: String,
    workload: String,
    job: simcluster::JobSpec,
}

/// A workload, fully determined by its kind and seed.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// Service settings the workload runs with.
    pub config: ServiceConfig,
    /// The provider history a restarting provider loads (JSON lines).
    history_jsonl: Option<String>,
}

/// A built service and its tenants, ready to serve calls.
pub struct Fixture {
    /// The service under test.
    pub service: SeamlessTuner,
    tenants: Vec<Tenant>,
    /// Seconds `HistoryStore::from_jsonl` took, when history was loaded.
    pub load_s: Option<f64>,
}

/// SplitMix64 of `a` salted with `b`: independent streams per salt.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// The named workload for `seed`, or `None` for an unknown name.
    /// `warm-provider` generates its history here, once per process.
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let kind = match name {
            "bo-stream" => Kind::BoStream,
            "sim-sweep" => Kind::SimSweep,
            "warm-provider" => Kind::WarmProvider,
            _ => return None,
        };
        let config = match kind {
            Kind::BoStream => ServiceConfig::default(),
            Kind::SimSweep => ServiceConfig {
                tuner: TunerKind::Random,
                stage1_budget: 16,
                stage2_budget: 60,
                transfer_k: 0,
                batch: 8,
                chaos: Some(FaultInjector::new(
                    mix(seed, SALT_CHAOS),
                    FaultPlan::chaos(),
                )),
                ..ServiceConfig::default()
            },
            Kind::WarmProvider => ServiceConfig {
                tuner: TunerKind::BayesOpt,
                transfer_k: 3,
                clustered_donors: true,
                batch: 8,
                ..ServiceConfig::default()
            },
        };
        let mut workload = Workload {
            kind,
            seed,
            config,
            history_jsonl: None,
        };
        if kind == Kind::WarmProvider {
            workload.history_jsonl = Some(workload.generate_history());
        }
        Some(workload)
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        match self.kind {
            Kind::BoStream => NAMES[0],
            Kind::SimSweep => NAMES[1],
            Kind::WarmProvider => NAMES[2],
        }
    }

    /// Service calls between provider restarts. Every episode starts
    /// from the same state, so the work per call does not drift with
    /// how many calls a run manages (a faster service would otherwise
    /// grow a larger history and slow its own later calls).
    pub fn episode_steps(&self) -> usize {
        match self.kind {
            Kind::BoStream => 60,
            Kind::SimSweep => 100,
            Kind::WarmProvider => WARM_PROVIDER_ROUNDS,
        }
    }

    /// Tunes whose outcomes the quality metrics, digests and the
    /// traced run cover: a fixed prefix of whole episodes, so they
    /// repeat exactly for a seed however fast the machine is.
    pub fn quality_tunes(&self) -> usize {
        let episodes = match self.kind {
            Kind::BoStream => 6,
            Kind::SimSweep => 4,
            Kind::WarmProvider => 12,
        };
        episodes * self.episode_steps() * self.tunes_per_step()
    }

    /// Tunes one service call carries.
    pub fn tunes_per_step(&self) -> usize {
        match self.kind {
            Kind::BoStream => 1,
            Kind::SimSweep => SIM_SWEEP_TENANTS,
            Kind::WarmProvider => WARM_PROVIDER_TENANTS,
        }
    }

    fn env(&self) -> SimEnvironment {
        SimEnvironment::dedicated(mix(self.seed, SALT_ENV))
    }

    /// The recurring tenant pool with freshly built jobs.
    fn tenants(&self) -> Vec<Tenant> {
        let pool: Vec<(&str, DataScale)> = match self.kind {
            // The Table I trio, each job owned by two tenants.
            Kind::BoStream => [
                ("wordcount", DataScale::Tiny),
                ("pagerank", DataScale::Small),
                ("bayes", DataScale::Ds1),
            ]
            .repeat(2),
            Kind::SimSweep => vec![
                ("wordcount", DataScale::Ds3),
                ("terasort", DataScale::Ds3),
                ("sqljoin", DataScale::Ds3),
                ("kmeans", DataScale::Ds2),
                ("pagerank", DataScale::Ds2),
                ("bayes", DataScale::Ds2),
            ],
            // All seven workloads, each at two input sizes.
            Kind::WarmProvider => ALL_SEVEN
                .iter()
                .flat_map(|&name| [(name, DataScale::Small), (name, DataScale::Ds1)])
                .collect(),
        };
        pool.into_iter()
            .enumerate()
            .map(|(i, (name, scale))| {
                let workload = workloads::workload_by_name(name)
                    .unwrap_or_else(|| panic!("workload {name} is not registered"));
                Tenant {
                    client: format!("{}-{i:02}", self.name()),
                    workload: format!("{name}@{}", scale.label()),
                    job: workload.job(scale),
                }
            })
            .collect()
    }

    /// A freshly started provider: its history loaded (for
    /// `warm-provider`) or empty, and a new service around it. Returns
    /// the seconds `HistoryStore::from_jsonl` took, if it ran.
    fn start_provider(&self) -> (SeamlessTuner, Option<f64>) {
        let (store, load_s) = match &self.history_jsonl {
            Some(jsonl) => {
                let start = Instant::now();
                let store = HistoryStore::from_jsonl(jsonl)
                    .expect("the generated history is well-formed JSON lines");
                (store, Some(start.elapsed().as_secs_f64()))
            }
            None => (HistoryStore::new(), None),
        };
        (
            SeamlessTuner::new(Arc::new(store), self.env(), self.config),
            load_s,
        )
    }

    /// Restarts the provider between episodes (see [`Self::start_provider`]).
    pub fn restart(&self, fixture: &mut Fixture) -> Option<f64> {
        let (service, load_s) = self.start_provider();
        fixture.service = service;
        load_s
    }

    /// Set-up: builds the jobs and the service, loads the provider
    /// history, and runs one warm-up tune per job on a scratch service
    /// with an empty store, so process-level lazy set-up is paid before
    /// timing while the measured service's state stays untouched.
    pub fn setup(&self) -> Fixture {
        let tenants = self.tenants();
        let (service, load_s) = self.start_provider();

        let scratch = SeamlessTuner::new(Arc::new(HistoryStore::new()), self.env(), self.config);
        let warmup: Vec<TenantRequest> = tenants
            .iter()
            .enumerate()
            .map(|(i, t)| request(t, mix(self.seed ^ SALT_WARMUP, i as u64)))
            .collect();
        match self.kind {
            Kind::BoStream => {
                for r in &warmup {
                    std::hint::black_box(scratch.tune(&r.client, &r.workload, &r.job, r.seed));
                }
            }
            Kind::SimSweep | Kind::WarmProvider => {
                std::hint::black_box(scratch.tune_many(&warmup));
            }
        }
        Fixture {
            service,
            tenants,
            load_s,
        }
    }

    /// The requests of service call `step` (a global index over the run).
    pub fn requests(&self, fixture: &Fixture, step: usize) -> Vec<TenantRequest> {
        let n = fixture.tenants.len();
        let picks: Vec<usize> = match self.kind {
            Kind::BoStream => vec![step % n],
            Kind::SimSweep | Kind::WarmProvider => {
                let mut order: Vec<usize> = (0..n).collect();
                let mut rng =
                    rand::rngs::StdRng::seed_from_u64(mix(self.seed ^ SALT_PICK, step as u64));
                order.shuffle(&mut rng);
                order.truncate(self.tunes_per_step());
                order
            }
        };
        picks
            .into_iter()
            .enumerate()
            .map(|(slot, t)| {
                let seed = mix(self.seed ^ SALT_TUNE, (step * 16 + slot) as u64);
                request(&fixture.tenants[t], seed)
            })
            .collect()
    }

    /// Submits one service call and waits for its outcomes.
    pub fn call(&self, fixture: &Fixture, requests: &[TenantRequest]) -> Vec<ServiceOutcome> {
        match self.kind {
            Kind::BoStream => requests
                .iter()
                .map(|r| fixture.service.tune(&r.client, &r.workload, &r.job, r.seed))
                .collect(),
            Kind::SimSweep | Kind::WarmProvider => fixture.service.tune_many(requests),
        }
    }

    /// The history a restarting `warm-provider` loads: real executions
    /// of the tenant pool by a random-search provider seeded with
    /// [`HISTORY_SEED`], serialized as JSON lines.
    fn generate_history(&self) -> String {
        let tenants = self.tenants();
        let generator = SeamlessTuner::new(
            Arc::new(HistoryStore::new()),
            SimEnvironment::dedicated(HISTORY_SEED),
            ServiceConfig {
                tuner: TunerKind::Random,
                transfer_k: 0,
                batch: 8,
                ..ServiceConfig::default()
            },
        );
        for round in 0..HISTORY_ROUNDS {
            let requests: Vec<TenantRequest> = tenants
                .iter()
                .enumerate()
                .map(|(i, t)| request(t, mix(HISTORY_SEED, round * 64 + i as u64)))
                .collect();
            generator.tune_many(&requests);
        }
        generator
            .store()
            .to_jsonl()
            .expect("history records serialize")
    }

    /// The loaded history (for direct layer timings).
    pub fn history_jsonl(&self) -> Option<&str> {
        self.history_jsonl.as_deref()
    }
}

fn request(tenant: &Tenant, seed: u64) -> TenantRequest {
    TenantRequest {
        client: tenant.client.clone(),
        workload: tenant.workload.clone(),
        job: tenant.job.clone(),
        seed,
    }
}
