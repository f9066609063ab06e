//! The measured loop: set-up, timed service calls, outcome checks and,
//! for the traced run, the trace sink and registry readings around the
//! calls.

use std::sync::Arc;
use std::time::Instant;

use confspace::{Configuration, ParamSpace};
use seamless_core::{ServiceConfig, ServiceOutcome};

use crate::layers::{RegistryDelta, RegistryMark, CALL_SPAN};
use crate::report::Summary;
use crate::scenario::{Fixture, Workload};

/// Set-ups a run without provider restarts makes before timing; the
/// reported set-up time is their median.
pub const SETUP_REPS: usize = 5;

/// When a phase stops.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Run at least this long and at least the workload's quality
    /// prefix; stop at an episode boundary. Set up [`SETUP_REPS`] times.
    Seconds(f64),
    /// Run this many tunes (rounded up to whole calls). Set up once.
    Tunes(usize),
}

/// The trace sink and registry deltas of a traced phase.
pub struct Tracer {
    /// In-memory sink holding every event of the traced calls.
    pub sink: Arc<obs::MemorySink>,
    /// Registry changes over the traced calls.
    pub delta: RegistryDelta,
    mark: Option<RegistryMark>,
}

/// Ring capacity of the trace sink: far above what a run emits, so
/// nothing is evicted (evictions are reported as dropped events).
const TRACE_CAPACITY: usize = 16 << 20;

impl Tracer {
    /// A tracer with an empty sink.
    pub fn new() -> Tracer {
        Tracer {
            sink: obs::MemorySink::new(TRACE_CAPACITY),
            delta: RegistryDelta::default(),
            mark: None,
        }
    }

    fn begin(&mut self) {
        self.mark = Some(RegistryMark::now());
        obs::install(self.sink.clone());
    }

    fn end(&mut self) {
        if let Some(mark) = self.mark.take() {
            obs::uninstall_all();
            self.delta.add_since(&mark);
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// What one phase measured.
#[derive(Default)]
pub struct Phase {
    /// Summaries of the quality prefix (the first `quality_tunes`).
    pub summaries: Vec<Summary>,
    /// Stage-2 configurations from the run's first tunes.
    pub configs: Vec<Configuration>,
    /// Latency of every tune: from submitting its call to the call's
    /// return (s).
    pub latencies_s: Vec<f64>,
    /// Tunes completed.
    pub tunes: usize,
    /// Wall time of the service calls (s), set-up excluded.
    pub wall_s: f64,
    /// Tunes per second of call time, per completed episode.
    pub episode_rates: Vec<f64>,
    /// Duration of each set-up (s).
    pub setup_s: Vec<f64>,
    /// Duration of each history load, set-up and restarts (s).
    pub load_s: Vec<f64>,
    /// Tunes whose outcome failed a check.
    pub failed_tunes: usize,
    /// The first few check failures, for the error report.
    pub failures: Vec<String>,
}

/// Stage-2 configurations a phase keeps for direct confspace timings.
const KEPT_CONFIGS: usize = 256;

/// Check failures are reported up to this many times per phase.
const MAX_REPORTED_FAILURES: usize = 8;

/// Runs `workload` until `limit`; traces the calls when `tracer` is set.
pub fn run(workload: &Workload, limit: Limit, mut tracer: Option<&mut Tracer>) -> Phase {
    let checker = Checker::new(workload.config);
    let quality = workload.quality_tunes();
    let mut phase = Phase::default();
    let setups = match limit {
        Limit::Seconds(_) => SETUP_REPS,
        Limit::Tunes(_) => 1,
    };
    let mut fixture = timed_setup(workload, &mut phase);
    for _ in 1..setups {
        fixture = timed_setup(workload, &mut phase);
    }
    let mut step = 0usize;
    let mut episode_start = (0usize, 0.0f64);
    loop {
        let boundary = step.is_multiple_of(workload.episode_steps());
        if boundary && step > 0 {
            let (tunes, wall_s) = episode_start;
            phase
                .episode_rates
                .push((phase.tunes - tunes) as f64 / (phase.wall_s - wall_s));
            episode_start = (phase.tunes, phase.wall_s);
        }
        let done = match limit {
            Limit::Seconds(s) => boundary && phase.tunes >= quality && phase.wall_s >= s,
            Limit::Tunes(n) => phase.tunes >= n,
        };
        if done {
            break;
        }
        if boundary {
            // A provider restart is not part of the traced calls.
            if let Some(t) = tracer.as_deref_mut() {
                t.end();
            }
            if step > 0 {
                phase.load_s.extend(workload.restart(&mut fixture));
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.begin();
            }
        }
        let requests = workload.requests(&fixture, step);
        let start = Instant::now();
        let outcomes = {
            let _call = obs::span(CALL_SPAN);
            workload.call(&fixture, &requests)
        };
        let latency = start.elapsed().as_secs_f64();
        phase.wall_s += latency;
        for outcome in outcomes {
            if let Err(why) = checker.check(&outcome) {
                phase.failed_tunes += 1;
                if phase.failures.len() < MAX_REPORTED_FAILURES {
                    phase
                        .failures
                        .push(format!("{} tune {}: {why}", workload.name(), phase.tunes));
                }
            }
            phase.latencies_s.push(latency);
            if phase.tunes < quality {
                phase.summaries.push(Summary::of(&outcome));
            }
            if phase.configs.len() < KEPT_CONFIGS {
                phase
                    .configs
                    .extend(outcome.stage2.history.iter().map(|o| o.config.clone()));
            }
            phase.tunes += 1;
        }
        step += 1;
    }
    if let Some(t) = tracer {
        t.end();
    }
    phase
}

fn timed_setup(workload: &Workload, phase: &mut Phase) -> Fixture {
    let start = Instant::now();
    let fixture = workload.setup();
    phase.setup_s.push(start.elapsed().as_secs_f64());
    if let Some(load) = fixture.load_s {
        phase.load_s.push(load);
    }
    fixture
}

/// Per-outcome correctness checks.
struct Checker {
    config: ServiceConfig,
    disc: ParamSpace,
    cloud: ParamSpace,
}

impl Checker {
    fn new(config: ServiceConfig) -> Checker {
        Checker {
            config,
            disc: confspace::spark::spark_space(),
            cloud: confspace::cloud::cloud_space(),
        }
    }

    fn check(&self, o: &ServiceOutcome) -> Result<(), String> {
        if !(o.best_runtime_s.is_finite() && o.best_runtime_s > 0.0) {
            return Err(format!(
                "best runtime {} is not finite and positive",
                o.best_runtime_s
            ));
        }
        self.disc
            .validate(&o.disc_config)
            .map_err(|e| format!("disc_config invalid: {e}"))?;
        self.cloud
            .validate(&o.cloud_config)
            .map_err(|e| format!("cloud_config invalid: {e}"))?;
        for (stage, outcome, budget) in [
            ("stage1", &o.stage1, self.config.stage1_budget),
            ("stage2", &o.stage2, self.config.stage2_budget),
        ] {
            let explained = outcome.degradation.is_some_and(|d| d.budget_exhausted);
            if outcome.history.len() != budget && !explained {
                return Err(format!(
                    "{stage} ran {} trials of a {budget}-trial budget with no degradation report saying why",
                    outcome.history.len()
                ));
            }
        }
        Ok(())
    }
}
