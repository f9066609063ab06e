//! Per-layer attribution of a traced run: span self times mapped onto
//! the repository's modules, combined with registry deltas read at the
//! same boundaries.
//!
//! A span's self time is its duration minus the summed durations of its
//! direct children (clamped at zero) — exactly the rule `trace_summary`
//! applies, so the benchmark and the profile cannot disagree.

use std::collections::BTreeMap;

use obs::{Event, EventKind};

/// Name of the span the benchmark opens around each service call. Its
/// self time is call time no span of the program covers.
pub const CALL_SPAN: &str = "perfbench.call";

/// Pseudo-layer for time a thread spends blocked on worker threads it
/// forked (counted in wall time, not in busy time).
pub const WAIT: &str = "wait";

/// Pseudo-layer for spans the map does not know.
pub const UNMAPPED: &str = "unmapped";

/// Span name → layer. Sequential and batched spellings map alike.
/// Names missing here land in [`UNMAPPED`]; none is dropped.
pub const SPAN_LAYERS: &[(&str, &str)] = &[
    ("tune_many", WAIT),
    ("tune", "service"),
    ("stage1", "service"),
    ("stage2", "service"),
    ("managed_run", "service"),
    ("retune", "service"),
    ("tuning_session", "session"),
    ("proposal", "session"),
    ("proposal_batch", "session"),
    ("propose", "proposal"),
    ("propose_batch", "proposal"),
    ("surrogate_fit", "models"),
    ("acquisition", "models"),
    ("evaluate", "objective"),
    ("probe", "objective"),
    ("incumbent", "objective"),
    ("sim.run", "simcluster"),
    ("transfer", "transfer"),
    ("donor_search", "transfer"),
    (CALL_SPAN, UNMAPPED),
];

/// The layer a span name belongs to.
pub fn layer_of(span: &str) -> &'static str {
    SPAN_LAYERS
        .iter()
        .find(|(name, _)| *name == span)
        .map_or(UNMAPPED, |(_, layer)| layer)
}

/// Aggregate of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Completed instances.
    pub count: u64,
    /// Summed durations (ns).
    pub total_ns: u64,
    /// Summed self times (ns).
    pub self_ns: u64,
}

/// Per-span-name aggregates of a trace.
#[derive(Debug, Clone, Default)]
pub struct SpanTable {
    /// Aggregates by span name.
    pub by_name: BTreeMap<String, SpanStat>,
    /// Summed durations of direct children, by (parent name, child name).
    pub child_ns: BTreeMap<(String, String), u64>,
    /// Executor worker threads' time between their trials (ns): on a
    /// thread whose only top-level spans are `sim.run` (a trial worker
    /// an executor round forked), the span from its first trial's start
    /// to its last trial's end less the simulator time.
    pub worker_gap_ns: u64,
}

/// Top-level span coverage of one thread.
struct ThreadRoots {
    first_start_ns: u64,
    last_end_ns: u64,
    sim_ns: u64,
    only_sim: bool,
}

impl SpanTable {
    /// Aggregates the completed spans of `events`.
    pub fn from_events(events: &[Event]) -> SpanTable {
        // Each completed instance: (name, duration, parent id).
        let mut instances: BTreeMap<u64, (&str, u64, u64)> = BTreeMap::new();
        let mut children_ns: BTreeMap<u64, u64> = BTreeMap::new();
        let mut threads: BTreeMap<u64, ThreadRoots> = BTreeMap::new();
        for e in events {
            if e.kind != EventKind::SpanEnd {
                continue;
            }
            let Some(dur) = e.field("dur_ns").and_then(|f| f.as_u64()) else {
                continue;
            };
            if e.span_id != 0 {
                instances.insert(e.span_id, (e.name.as_str(), dur, e.parent_id));
            }
            if e.parent_id != 0 {
                *children_ns.entry(e.parent_id).or_default() += dur;
            } else {
                let t = threads.entry(e.tid).or_insert(ThreadRoots {
                    first_start_ns: u64::MAX,
                    last_end_ns: 0,
                    sim_ns: 0,
                    only_sim: true,
                });
                t.first_start_ns = t.first_start_ns.min(e.ts_ns.saturating_sub(dur));
                t.last_end_ns = t.last_end_ns.max(e.ts_ns);
                if e.name == "sim.run" {
                    t.sim_ns += dur;
                } else {
                    t.only_sim = false;
                }
            }
        }
        let mut table = SpanTable {
            worker_gap_ns: threads
                .values()
                .filter(|t| t.only_sim)
                .map(|t| (t.last_end_ns - t.first_start_ns).saturating_sub(t.sim_ns))
                .sum(),
            ..SpanTable::default()
        };
        for (span_id, (name, dur, parent)) in &instances {
            let stat = table.by_name.entry((*name).to_owned()).or_default();
            stat.count += 1;
            stat.total_ns += dur;
            let children = children_ns.get(span_id).copied().unwrap_or(0);
            stat.self_ns += dur.saturating_sub(children);
            if let Some((parent_name, _, _)) = instances.get(parent) {
                *table
                    .child_ns
                    .entry(((*parent_name).to_owned(), (*name).to_owned()))
                    .or_default() += dur;
            }
        }
        table
    }

    /// The aggregate of `name` (zero when absent).
    pub fn stat(&self, name: &str) -> SpanStat {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    fn self_ns(&self, names: &[&str]) -> u64 {
        names.iter().map(|n| self.stat(n).self_ns).sum()
    }

    fn child(&self, parent: &str, child: &str) -> u64 {
        self.child_ns
            .get(&(parent.to_owned(), child.to_owned()))
            .copied()
            .unwrap_or(0)
    }

    /// Self time of spans the map does not know, plus the benchmark's
    /// own call span.
    fn unmapped_ns(&self) -> u64 {
        self.by_name
            .iter()
            .filter(|(name, _)| layer_of(name) == UNMAPPED)
            .map(|(_, s)| s.self_ns)
            .sum()
    }
}

/// Counter and histogram changes over the traced part of a run.
#[derive(Debug, Clone, Default)]
pub struct RegistryDelta {
    counters: BTreeMap<String, u64>,
    /// (sample count, summed ns) per histogram.
    histograms: BTreeMap<String, (u64, u64)>,
}

/// A registry reading to subtract from a later one.
pub struct RegistryMark(obs::RegistrySnapshot);

impl RegistryMark {
    /// Reads the global registry now.
    pub fn now() -> RegistryMark {
        RegistryMark(obs::registry().snapshot())
    }
}

impl RegistryDelta {
    /// Adds the change since `mark` to this delta.
    pub fn add_since(&mut self, mark: &RegistryMark) {
        let now = obs::registry().snapshot();
        let before: BTreeMap<&str, u64> = mark
            .0
            .counters
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        for (name, v) in &now.counters {
            let d = v.saturating_sub(before.get(name.as_str()).copied().unwrap_or(0));
            *self.counters.entry(name.clone()).or_default() += d;
        }
        let before: BTreeMap<&str, (u64, u64)> = mark
            .0
            .histograms
            .iter()
            .map(|(n, h)| (n.as_str(), (h.count, h.sum_ns)))
            .collect();
        for (name, h) in &now.histograms {
            let (c0, s0) = before.get(name.as_str()).copied().unwrap_or((0, 0));
            let entry = self.histograms.entry(name.clone()).or_default();
            entry.0 += h.count.saturating_sub(c0);
            entry.1 += h.sum_ns.saturating_sub(s0);
        }
    }

    /// Change of counter `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Samples recorded into histogram `name`.
    pub fn hist_count(&self, name: &str) -> u64 {
        self.histograms.get(name).map_or(0, |h| h.0)
    }

    /// Summed ns recorded into histogram `name`.
    pub fn hist_sum_ns(&self, name: &str) -> u64 {
        self.histograms.get(name).map_or(0, |h| h.1)
    }
}

/// Busy time per layer, in ns summed over threads, for a traced run.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Layer name → busy ns.
    pub busy_ns: BTreeMap<&'static str, u64>,
    /// Time threads spent blocked on workers they forked (ns).
    pub wait_ns: u64,
    /// Executor round wall time on the calling thread (ns).
    pub executor_round_ns: u64,
}

impl LayerTimes {
    /// Attributes the trace's self time to layers.
    ///
    /// Three corrections turn raw self times into busy time:
    /// * an executor round blocks its caller (`proposal_batch`) while
    ///   worker threads run the trials, so the round's wall time,
    ///   except trials the caller ran inline, moves from `session` to
    ///   wait; the workers' time between their trials is charged to
    ///   `executor` ([`SpanTable::worker_gap_ns`]);
    /// * `tune_many` only forks tenants onto workers: all wait;
    /// * history reads and writes have no spans; their registry time
    ///   moves out of the spans that make them (`donor_search` for flat
    ///   donor queries, `tune` for the SLO lookup and record inserts).
    pub fn attribute(table: &SpanTable, delta: &RegistryDelta) -> LayerTimes {
        let round_ns = delta.hist_sum_ns("executor.batch_s");
        let inline_sim_ns = table.child("proposal_batch", "sim.run");
        let round_wait_ns = round_ns.saturating_sub(inline_sim_ns);

        let queries = delta.counter("history.queries");
        let query_ns = delta.hist_sum_ns("history.query_s");
        let per_query_ns = query_ns.checked_div(queries).unwrap_or(0);
        let donor_self_ns = table.stat("donor_search").self_ns;
        let history_in_transfer =
            (table.stat("donor_search").count * per_query_ns).min(donor_self_ns);
        let tune_self_ns = table.stat("tune").self_ns;
        let history_in_tune = (query_ns.saturating_sub(history_in_transfer)
            + delta.hist_sum_ns("history.insert_s"))
        .min(tune_self_ns);

        let mut busy: BTreeMap<&'static str, u64> = BTreeMap::new();
        busy.insert(
            "service",
            table.self_ns(&["tune", "stage1", "stage2", "managed_run", "retune"]) - history_in_tune,
        );
        busy.insert(
            "session",
            table
                .self_ns(&["tuning_session", "proposal", "proposal_batch"])
                .saturating_sub(round_wait_ns),
        );
        // Propose self time: proposal work other than fit and acquisition.
        busy.insert("proposal", table.self_ns(&["propose", "propose_batch"]));
        busy.insert("models", table.self_ns(&["surrogate_fit", "acquisition"]));
        busy.insert("executor", table.worker_gap_ns);
        busy.insert(
            "objective",
            table.self_ns(&["evaluate", "probe", "incumbent"]),
        );
        busy.insert("simcluster", table.self_ns(&["sim.run"]));
        busy.insert("history", history_in_tune + history_in_transfer);
        busy.insert(
            "transfer",
            table.self_ns(&["transfer", "donor_search"]) - history_in_transfer,
        );
        busy.insert(UNMAPPED, table.unmapped_ns());
        LayerTimes {
            busy_ns: busy,
            wait_ns: table.stat("tune_many").self_ns + round_wait_ns,
            executor_round_ns: round_ns,
        }
    }

    /// Busy time summed over layers (ns).
    pub fn total_busy_ns(&self) -> u64 {
        self.busy_ns.values().sum()
    }

    /// Busy ns of `layer`.
    pub fn layer(&self, layer: &str) -> u64 {
        self.busy_ns.get(layer).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::FieldValue;

    fn end(id: u64, parent: u64, tid: u64, name: &str, dur: u64) -> Event {
        Event {
            ts_ns: 0,
            tid,
            kind: EventKind::SpanEnd,
            name: name.to_owned(),
            span_id: id,
            parent_id: parent,
            fields: vec![("dur_ns".to_owned(), FieldValue::U64(dur))],
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let events = vec![
            end(3, 2, 1, "sim.run", 30),
            end(2, 1, 1, "evaluate", 50),
            end(1, 0, 1, "tune", 100),
            end(4, 0, 2, "sim.run", 70),
        ];
        let t = SpanTable::from_events(&events);
        assert_eq!(t.stat("tune").self_ns, 50);
        assert_eq!(t.stat("evaluate").self_ns, 20);
        assert_eq!(t.stat("sim.run").self_ns, 100);
        assert_eq!(t.child("evaluate", "sim.run"), 30);
    }

    #[test]
    fn both_spellings_are_mapped_and_unknown_names_are_unmapped() {
        for (a, b) in [("proposal", "proposal_batch"), ("propose", "propose_batch")] {
            assert_ne!(layer_of(a), UNMAPPED);
            assert_eq!(layer_of(a), layer_of(b));
        }
        assert_eq!(layer_of("some.new_span"), UNMAPPED);
        let t = SpanTable::from_events(&[end(1, 0, 1, "some.new_span", 9)]);
        let layers = LayerTimes::attribute(&t, &RegistryDelta::default());
        assert_eq!(layers.layer(UNMAPPED), 9);
        assert_eq!(layers.total_busy_ns(), 9);
    }
}
