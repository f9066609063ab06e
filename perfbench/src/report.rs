//! Metric definitions and the result line.

use seamless_core::ServiceOutcome;

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// What the benchmark keeps of one outcome: its digest and the inputs
/// of the quality metrics (full outcomes would dominate the process's
/// memory and blur `peak_rss_mb`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Digest of everything the tune decided.
    pub digest: u64,
    /// Tuned runtime over the house-default probe's runtime.
    pub best_vs_default: f64,
    /// Whether the tune met the SLO: within 10% of the optimum proxy.
    pub within_10pct: bool,
    /// Stage-2 trials to get within 10% of the stage's best.
    pub trials_to_10pct: Option<usize>,
    /// Tuning spend (USD).
    pub tuning_cost_usd: f64,
    /// Whether cross-tenant transfer seeded stage 2.
    pub used_transfer: bool,
    /// Trials attempted over both stages.
    pub trials: usize,
    /// Trials that ended failed or timed out.
    pub failed_trials: usize,
    /// Trials that ended ok on the resilient executor.
    pub completed_trials: usize,
    /// Retry attempts on the resilient executor.
    pub retries: u64,
    /// Whether the stages ran on the resilient executor.
    pub resilient: bool,
}

impl Summary {
    /// Summarizes `o`.
    pub fn of(o: &ServiceOutcome) -> Summary {
        let mut s = Summary {
            digest: digest(o),
            best_vs_default: o.best_runtime_s / o.slo.default_runtime_s.unwrap_or(f64::NAN),
            within_10pct: o.slo.within_of_optimal(0.10) == Some(true),
            trials_to_10pct: o.stage2.evals_to_within(0.10),
            tuning_cost_usd: o.tuning_cost_usd(),
            used_transfer: o.used_transfer,
            trials: 0,
            failed_trials: 0,
            completed_trials: 0,
            retries: 0,
            resilient: false,
        };
        for stage in [&o.stage1, &o.stage2] {
            match stage.degradation {
                Some(d) => {
                    s.resilient = true;
                    s.trials += d.completed + d.failed + d.timed_out;
                    s.failed_trials += d.failed + d.timed_out;
                    s.completed_trials += d.completed;
                    s.retries += d.retries;
                }
                None => s.trials += stage.history.len(),
            }
        }
        s
    }
}

/// A 64-bit FNV-1a digest of everything an outcome decided: the chosen
/// configurations, the best runtime and every observed trial.
pub fn digest(o: &ServiceOutcome) -> u64 {
    let mut text = format!(
        "{}|{}|{:x}|{}",
        o.cloud_config,
        o.disc_config,
        o.best_runtime_s.to_bits(),
        o.used_transfer
    );
    for obs in o.stage1.history.iter().chain(&o.stage2.history) {
        text.push_str(&format!("|{:x}", obs.runtime_s.to_bits()));
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The paper's quality and cost units over a run's quality prefix
/// (§IV-D: how close tuning gets and what it spends getting there).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Mean tuned runtime against the house-default probe.
    pub best_vs_default: f64,
    /// Share of tunes within 10% of the optimum proxy (the SLO).
    pub slo_within_10pct: f64,
    /// Mean stage-2 trials to get within 10% of the stage's best.
    pub trials_to_10pct: f64,
    /// Mean tuning spend per tune (USD).
    pub tuning_cost_usd: f64,
    /// Trials that ended failed or timed out, over trials attempted.
    pub failed_trial_frac: f64,
}

impl Quality {
    /// Quality of `tunes` (empty input gives zeros).
    pub fn of(tunes: &[Summary]) -> Quality {
        let n = tunes.len().max(1) as f64;
        let mean = |f: fn(&Summary) -> f64| tunes.iter().map(f).sum::<f64>() / n;
        let to_10pct: Vec<f64> = tunes
            .iter()
            .filter_map(|s| s.trials_to_10pct)
            .map(|t| t as f64)
            .collect();
        let attempted: usize = tunes.iter().map(|s| s.trials).sum();
        let failed: usize = tunes.iter().map(|s| s.failed_trials).sum();
        Quality {
            best_vs_default: mean(|s| s.best_vs_default),
            slo_within_10pct: mean(|s| f64::from(u8::from(s.within_10pct))),
            trials_to_10pct: to_10pct.iter().sum::<f64>() / to_10pct.len().max(1) as f64,
            tuning_cost_usd: mean(|s| s.tuning_cost_usd),
            failed_trial_frac: failed as f64 / attempted.max(1) as f64,
        }
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for no values).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (MB), from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        obs::json::write_escaped(&mut out, m.name);
        out.push_str(": {\"value\": ");
        // Full digits; a value that cannot be written as JSON is 0 here
        // and fails the run's finiteness check.
        if m.value.is_finite() {
            out.push_str(&format!("{:?}", m.value));
        } else {
            out.push('0');
        }
        out.push_str(", \"unit\": ");
        obs::json::write_escaped(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// A two-line table: metric names with units, then one row of values.
pub fn table(workload: &str, metrics: &[Metric]) -> String {
    let cells: Vec<(String, String)> = metrics
        .iter()
        .map(|m| {
            (
                format!("{} ({})", m.name, m.unit),
                format!("{:.6}", m.value),
            )
        })
        .collect();
    let mut head = format!("| {:<13} |", "workload");
    let mut row = format!("| {workload:<13} |");
    for (h, v) in &cells {
        let w = h.len().max(v.len());
        head.push_str(&format!(" {h:>w$} |"));
        row.push_str(&format!(" {v:>w$} |"));
    }
    format!("{head}\n{row}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_json_has_exactly_the_four_keys() {
        let line = result_json(true, 3, 0, &[Metric::new("setup_s", "s", 0.25)]);
        let v = obs::json::parse(&line).unwrap();
        let obs::json::JsonValue::Object(keys) = &v else {
            panic!("not an object: {line}");
        };
        let names: Vec<&str> = keys.keys().map(String::as_str).collect();
        assert_eq!(names, ["attempted", "correct", "failed", "metrics"]);
        let value = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .and_then(|m| m.get("value"));
        assert_eq!(value.and_then(|x| x.as_f64()), Some(0.25));
    }
}
