//! The tuning service's benchmark: three closed-loop workloads driven
//! through `SeamlessTuner::tune` / `tune_many`, end-to-end speed and
//! tuning quality from an untraced run, and a per-layer breakdown from
//! a separate traced run. Every number is measured from outside the
//! program: the benchmark times its own calls into public functions and
//! reads the spans and registry metrics the program already emits.

pub mod context;
pub mod layers;
pub mod phase;
pub mod report;
pub mod scenario;

use std::path::PathBuf;
use std::time::Instant;

use confspace::{Configuration, Sampler, UniformSampler};
use rand::SeedableRng;
use seamless_core::{ClusteredHistory, HistoryStore, RecordOutcome};

use layers::{LayerTimes, SpanTable};
use phase::{Limit, Phase, Tracer};
use report::{Metric, Quality, Summary};
use scenario::{Kind, Workload};

/// Tunes the untraced run repeats to check that a seed replays exactly.
const REPEAT_TUNES: usize = 6;

/// Direct calls timed per confspace operation.
const CONFSPACE_CALLS: usize = 4000;

/// The outcome of one benchmark invocation.
pub struct Run {
    /// Whether every output check passed.
    pub correct: bool,
    /// Tunes attempted over every phase of the run.
    pub attempted: usize,
    /// Tunes whose outcome failed a check.
    pub failed: usize,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Why the run is not correct, one line each.
    pub failures: Vec<String>,
    /// Informational lines (trace file, workload-purpose readings).
    pub notes: Vec<String>,
}

impl Run {
    fn new() -> Run {
        Run {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn absorb(&mut self, phase: &Phase) {
        self.attempted += phase.tunes;
        self.failed += phase.failed_tunes;
        self.fail_all(phase.failures.iter().cloned());
    }

    fn fail_all(&mut self, why: impl IntoIterator<Item = String>) {
        for w in why {
            self.correct = false;
            self.failures.push(w);
        }
    }

    fn fail(&mut self, why: String) {
        self.fail_all([why]);
    }
}

/// Whether `workload`'s outcomes are a pure function of its seed (no
/// cross-tenant reads racing concurrent inserts).
fn deterministic(workload: &Workload) -> bool {
    workload.kind != Kind::WarmProvider
}

/// Differences between a run's outcomes and a replay of the same seed:
/// every outcome digest must repeat and, when `compare_quality`, every
/// quality metric. The SLO predicate is exempt where tenants tune
/// concurrently: its reference (`best_similar_runtime`) reads other
/// tenants' records, so it depends on how their inserts interleave.
fn replay_failures(
    workload: &Workload,
    first: &[Summary],
    replay: &[Summary],
    compare_quality: bool,
) -> Vec<String> {
    let mut failures = Vec::new();
    let name = workload.name();
    if first.len() != replay.len() {
        failures.push(format!(
            "{name}: replay has {} tunes, run {}",
            replay.len(),
            first.len()
        ));
    }
    if let Some(i) = first
        .iter()
        .zip(replay)
        .position(|(a, b)| a.digest != b.digest)
    {
        failures.push(format!(
            "{name}: a repeated run of seed {} decided tune {i} differently",
            workload.seed
        ));
    }
    if compare_quality {
        let (a, mut b) = (Quality::of(first), Quality::of(replay));
        if workload.tunes_per_step() > 1 {
            b.slo_within_10pct = a.slo_within_10pct;
        }
        if a != b {
            failures.push(format!("{name}: replayed quality {b:?} differs from {a:?}"));
        }
    }
    failures
}

/// The untraced run: end-to-end speed, quality, set-up and memory.
pub fn run_untraced(workload: &Workload, seconds: f64) -> Run {
    let mut run = Run::new();
    let measured = phase::run(workload, Limit::Seconds(seconds), None);
    run.absorb(&measured);
    if deterministic(workload) {
        let repeat = phase::run(workload, Limit::Tunes(REPEAT_TUNES), None);
        run.absorb(&repeat);
        let prefix = &measured.summaries[..repeat.summaries.len().min(measured.summaries.len())];
        run.fail_all(replay_failures(workload, prefix, &repeat.summaries, false));
    }
    let q = Quality::of(&measured.summaries);
    run.metrics = vec![
        Metric::new(
            "tunes_per_s",
            "tunes/s",
            report::quantile(&measured.episode_rates, 0.5),
        ),
        Metric::new(
            "tune_p50_ms",
            "ms",
            1e3 * report::quantile(&measured.latencies_s, 0.5),
        ),
        Metric::new(
            "tune_p90_ms",
            "ms",
            1e3 * report::quantile(&measured.latencies_s, 0.9),
        ),
        Metric::new("best_vs_default", "ratio", q.best_vs_default),
        Metric::new("slo_within_10pct", "fraction", q.slo_within_10pct),
        Metric::new("trials_to_10pct", "trials", q.trials_to_10pct),
        Metric::new("tuning_cost_usd", "USD/tune", q.tuning_cost_usd),
        Metric::new("trial_ok_frac", "fraction", 1.0 - q.failed_trial_frac),
        Metric::new("setup_s", "s", report::quantile(&measured.setup_s, 0.5)),
        Metric::new("peak_rss_mb", "MB", report::peak_rss_mb()),
    ];
    let nonpositive: Vec<String> = run
        .metrics
        .iter()
        .filter(|m| !(m.value.is_finite() && m.value > 0.0))
        .map(|m| {
            format!(
                "{}: {} = {} is not finite and positive",
                workload.name(),
                m.name,
                m.value
            )
        })
        .collect();
    run.fail_all(nonpositive);
    run.notes.push(format!(
        "{} tunes in {:.3} s of calls; latency percentiles over {} tunes; quality over the first {}; failed_trial_frac = {}",
        measured.tunes,
        measured.wall_s,
        measured.latencies_s.len(),
        measured.summaries.len(),
        q.failed_trial_frac
    ));
    let rates: Vec<String> = measured
        .episode_rates
        .iter()
        .map(|r| format!("{r:.2}"))
        .collect();
    run.notes
        .push(format!("episode rates (tunes/s): {}", rates.join(" ")));
    run
}

/// The traced run: the quality prefix untraced, then again with an
/// in-memory trace sink; per-layer metrics from the Chrome trace it
/// writes.
pub fn run_traced(workload: &Workload, trace_dir: &std::path::Path) -> Run {
    let mut run = Run::new();
    let quality_tunes = workload.quality_tunes();
    let untraced = phase::run(workload, Limit::Tunes(quality_tunes), None);
    run.absorb(&untraced);
    let mut tracer = Tracer::new();
    let traced = phase::run(workload, Limit::Tunes(quality_tunes), Some(&mut tracer));
    run.absorb(&traced);

    if deterministic(workload) {
        run.fail_all(replay_failures(
            workload,
            &untraced.summaries,
            &traced.summaries,
            true,
        ));
    }
    let dropped = tracer.delta.counter("obs.events.dropped") + tracer.sink.dropped();
    if dropped != 0 {
        run.fail(format!(
            "{}: the trace sink dropped {dropped} events",
            workload.name()
        ));
    }

    // The per-layer numbers come from the Chrome trace as written, the
    // same input `trace_summary` reads.
    let events = tracer.sink.drain();
    let path = trace_dir.join(format!(
        "{}-seed{}.trace.json",
        workload.name(),
        workload.seed
    ));
    let table = match write_trace(&path, &events) {
        Ok(reread) => SpanTable::from_events(&reread),
        Err(e) => {
            run.fail(format!("cannot write or re-read {}: {e}", path.display()));
            SpanTable::from_events(&events)
        }
    };
    drop(events);
    run.notes.push(format!("chrome trace: {}", path.display()));

    let layers = LayerTimes::attribute(&table, &tracer.delta);
    run.metrics = layer_metrics(workload, &table, &tracer, &layers, &traced);
    run.metrics.push(Metric::new(
        "obs.trace_overhead_frac",
        "fraction",
        traced.wall_s / untraced.wall_s - 1.0,
    ));
    run.metrics
        .push(Metric::new("obs.events_dropped", "count", dropped as f64));
    run.notes.extend(purpose_notes(&layers));
    run
}

/// Writes `events` as a Chrome trace at `path` and parses the file back:
/// the per-layer numbers are computed from exactly what `trace_summary`
/// would read.
pub fn write_trace(
    path: &std::path::Path,
    events: &[obs::Event],
) -> Result<Vec<obs::Event>, String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    obs::write_chrome_trace(path, events).map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    obs::parse_chrome_trace(&text)
}

/// Where traced runs write their Chrome traces.
pub fn default_trace_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn layer_metrics(
    workload: &Workload,
    table: &SpanTable,
    tracer: &Tracer,
    layers: &LayerTimes,
    traced: &Phase,
) -> Vec<Metric> {
    let d = &tracer.delta;
    let tunes = traced.tunes.max(1) as f64;
    let threads = models::par::num_threads() as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / tunes;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let busy = layers.total_busy_ns();
    let share = |layer: &str| ratio(layers.layer(layer), busy);
    let (sample_us, encode_us, validate_us) = time_confspace(&traced.configs, workload.seed);
    let (hits, misses) = (
        d.counter("bo.fit_cache.hit"),
        d.counter("bo.fit_cache.miss"),
    );
    let sim_total_ns = table.stat("sim.run").total_ns;
    let queries = d.counter("history.queries");
    let inserts = d.hist_count("history.insert_s");
    vec![
        Metric::new(
            "service.tune_self_ms",
            "ms/tune",
            ms(layers.layer("service")),
        ),
        Metric::new(
            "service.busy_per_wall",
            "ratio",
            table.stat("tune").total_ns as f64 / 1e9 / (traced.wall_s * threads),
        ),
        Metric::new("session.self_ms", "ms/tune", ms(layers.layer("session"))),
        Metric::new(
            "proposal.propose_ms",
            "ms/tune",
            ms(table.stat("propose").total_ns + table.stat("propose_batch").total_ns),
        ),
        Metric::new(
            "proposal.candidates_ms",
            "ms/tune",
            ms(layers.layer("proposal")),
        ),
        Metric::new("confspace.sample_us", "us/call", sample_us),
        Metric::new("confspace.encode_us", "us/call", encode_us),
        Metric::new("confspace.validate_us", "us/call", validate_us),
        Metric::new(
            "models.fit_ms",
            "ms/tune",
            ms(table.stat("surrogate_fit").self_ns),
        ),
        Metric::new(
            "models.acquisition_ms",
            "ms/tune",
            ms(table.stat("acquisition").self_ns),
        ),
        Metric::new(
            "models.fit_cache_hit_ratio",
            "ratio",
            ratio(hits, hits + misses),
        ),
        Metric::new("executor.round_ms", "ms/tune", ms(layers.executor_round_ns)),
        Metric::new("executor.self_ms", "ms/tune", ms(layers.layer("executor"))),
        Metric::new(
            "executor.retries_per_tune",
            "count/tune",
            d.counter("executor.retries") as f64 / tunes,
        ),
        Metric::new(
            "executor.useful_trial_ratio",
            "ratio",
            useful_trial_ratio(&traced.summaries, d.counter("executor.quarantine_hits")),
        ),
        Metric::new(
            "objective.evaluate_ms",
            "ms/tune",
            ms(layers.layer("objective")),
        ),
        Metric::new(
            "simcluster.run_ms",
            "ms/tune",
            ms(layers.layer("simcluster")),
        ),
        Metric::new(
            "simcluster.runs_per_tune",
            "count/tune",
            d.counter("sim.runs") as f64 / tunes,
        ),
        Metric::new(
            "simcluster.us_per_task",
            "us/task",
            ratio(sim_total_ns, d.counter("sim.tasks")) / 1e3,
        ),
        Metric::new(
            "history.query_ms",
            "ms/query",
            ratio(d.hist_sum_ns("history.query_s"), queries) / 1e6,
        ),
        Metric::new(
            "history.queries_per_tune",
            "count/tune",
            queries as f64 / tunes,
        ),
        Metric::new(
            "history.insert_us",
            "us/insert",
            ratio(d.hist_sum_ns("history.insert_s"), inserts) / 1e3,
        ),
        Metric::new("history.load_s", "s", report::quantile(&traced.load_s, 0.5)),
        Metric::new(
            "history.rejects",
            "count",
            d.counter("history.rejects") as f64,
        ),
        Metric::new("transfer.ms", "ms/tune", ms(layers.layer("transfer"))),
        Metric::new(
            "transfer.cluster_rebuilds",
            "count",
            d.counter("transfer.cluster_rebuilds") as f64,
        ),
        Metric::new(
            "transfer.cluster_build_ms",
            "ms",
            time_cluster_build(workload),
        ),
        Metric::new(
            "transfer.used_frac",
            "fraction",
            traced.summaries.iter().filter(|s| s.used_transfer).count() as f64 / tunes,
        ),
        Metric::new(
            "unmapped.self_ms",
            "ms/tune",
            ms(layers.layer(layers::UNMAPPED)),
        ),
        Metric::new("busy.ms_per_tune", "ms/tune", ms(busy)),
        Metric::new("wall.ms_per_tune", "ms/tune", traced.wall_s * 1e3 / tunes),
        Metric::new("wait.ms_per_tune", "ms/tune", ms(layers.wait_ns)),
        Metric::new("proposal.busy_share", "fraction", share("proposal")),
        Metric::new("simcluster.busy_share", "fraction", share("simcluster")),
        Metric::new("history.busy_share", "fraction", share("history")),
        Metric::new("transfer.busy_share", "fraction", share("transfer")),
    ]
}

/// Ok trials over trial attempts (retries included; quarantined trials
/// make no attempt). Sessions without resilient execution run every
/// trial once and usefully.
fn useful_trial_ratio(tunes: &[Summary], quarantine_hits: u64) -> f64 {
    if !tunes.iter().any(|s| s.resilient) {
        return 1.0;
    }
    let ok: u64 = tunes.iter().map(|s| s.completed_trials as u64).sum();
    let attempts: u64 = tunes.iter().map(|s| s.trials as u64 + s.retries).sum();
    ok as f64 / attempts.saturating_sub(quarantine_hits).max(1) as f64
}

/// Mean µs per direct call of `sample`, `encode` and `validate` on the
/// Spark space, over configurations from the run's own history.
fn time_confspace(configs: &[Configuration], seed: u64) -> (f64, f64, f64) {
    let space = confspace::spark::spark_space();
    if configs.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let per_call_us = |f: &mut dyn FnMut(usize)| {
        let start = Instant::now();
        for i in 0..CONFSPACE_CALLS {
            f(i);
        }
        start.elapsed().as_secs_f64() * 1e6 / CONFSPACE_CALLS as f64
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let sample = per_call_us(&mut |_| {
        std::hint::black_box(UniformSampler.sample(&space, &mut rng));
    });
    let encode = per_call_us(&mut |i| {
        std::hint::black_box(space.encode(std::hint::black_box(&configs[i % configs.len()])));
    });
    let validate = per_call_us(&mut |i| {
        let _ =
            std::hint::black_box(space.validate(std::hint::black_box(&configs[i % configs.len()])));
    });
    (sample, encode, validate)
}

/// Milliseconds one k-medoids build of the loaded history takes, timed
/// directly (only workloads that cluster donors load history).
fn time_cluster_build(workload: &Workload) -> f64 {
    let Some(jsonl) = workload
        .history_jsonl()
        .filter(|_| workload.config.clustered_donors)
    else {
        return 0.0;
    };
    let store = HistoryStore::from_jsonl(jsonl).expect("the generated history is well-formed");
    let records: Vec<_> = store
        .snapshot()
        .into_iter()
        .filter(|r| r.outcome == RecordOutcome::Ok)
        .collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(workload.seed);
    let start = Instant::now();
    std::hint::black_box(ClusteredHistory::build_from_records(records, 3, &mut rng));
    start.elapsed().as_secs_f64() * 1e3
}

/// Which layer is largest, and the shares the workloads were chosen
/// for — readings, not gates: an optimization may rightly move them.
fn purpose_notes(layers: &LayerTimes) -> Vec<String> {
    let mut ranked: Vec<(&str, u64)> = layers
        .busy_ns
        .iter()
        .map(|(name, ns)| match *name {
            "proposal" => ("proposal.candidates", *ns),
            other => (other, *ns),
        })
        .collect();
    ranked.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
    let busy = layers.total_busy_ns().max(1) as f64;
    let listing: Vec<String> = ranked
        .iter()
        .map(|(name, ns)| format!("{name} {:.1}%", 100.0 * *ns as f64 / busy))
        .collect();
    vec![
        format!(
            "largest layer: {}",
            ranked.first().map_or("none", |(n, _)| n)
        ),
        format!("busy-time shares: {}", listing.join(", ")),
        format!(
            "history+transfer share of busy time: {:.4}",
            (layers.layer("history") + layers.layer("transfer")) as f64 / busy
        ),
    ]
}
