//! The benchmark's self-time aggregation must give the same per-span
//! self times as `trace_summary` on the Chrome trace the benchmark
//! writes, so the profile and the benchmark cannot disagree.
//!
//! Builds the repository's `trace_summary` binary (release) into this
//! test's scratch directory on first use.

use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::layers::SpanTable;
use perfbench::phase::{self, Limit, Tracer};
use perfbench::scenario::Workload;

/// `trace_summary`'s duration format.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn trace_summary(trace: &Path) -> String {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let out = Command::new(cargo)
        .args(["run", "--release", "--quiet", "--offline", "-p", "bench"])
        .args(["--bin", "trace_summary", "--manifest-path"])
        .arg(repo.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace_summary"))
        .arg("--")
        .arg(trace)
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "trace_summary failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Rows of the "Span self time" table: (span, count, formatted self).
fn self_time_rows(summary: &str) -> Vec<(String, u64, String)> {
    summary
        .lines()
        .skip_while(|l| !l.starts_with("## Span self time"))
        .skip(1)
        .take_while(|l| l.starts_with('|'))
        .filter(|l| !l.starts_with("| span") && !l.starts_with("|-"))
        .map(|l| {
            let cells: Vec<&str> = l.split('|').map(str::trim).collect();
            (
                cells[1].to_owned(),
                cells[2].parse().expect("count column"),
                cells[3].to_owned(),
            )
        })
        .collect()
}

fn traced_trace(workload: &str, tunes: usize) -> PathBuf {
    let workload = Workload::new(workload, 5).expect("known workload");
    let mut tracer = Tracer::new();
    let traced = phase::run(&workload, Limit::Tunes(tunes), Some(&mut tracer));
    assert!(traced.failures.is_empty(), "{:?}", traced.failures);
    let path =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{}.trace.json", workload.name()));
    perfbench::write_trace(&path, &tracer.sink.drain()).expect("trace round-trips");
    path
}

#[test]
fn self_times_match_trace_summary_on_sequential_and_batched_traces() {
    // bo-stream exercises the sequential spans (`proposal`/`propose`),
    // sim-sweep the batched ones and the executor's worker threads.
    for (workload, tunes) in [("bo-stream", 2), ("sim-sweep", 2)] {
        let path = traced_trace(workload, tunes);
        let text = std::fs::read_to_string(&path).expect("trace file");
        let table = SpanTable::from_events(&obs::parse_chrome_trace(&text).expect("valid trace"));
        let rows = self_time_rows(&trace_summary(&path));
        assert_eq!(
            rows.len(),
            table.by_name.len().min(15),
            "{workload}: {rows:?}"
        );
        for (name, count, self_time) in rows {
            let stat = table.stat(&name);
            assert_eq!(stat.count, count, "{workload}: count of {name}");
            assert_eq!(
                fmt_ns(stat.self_ns),
                self_time,
                "{workload}: self time of {name}"
            );
        }
    }
}
