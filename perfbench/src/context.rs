//! The machine context every result carries: where, how and from which
//! code a number was measured. Collected once per process.

use std::process::Command;
use std::sync::OnceLock;

/// Worker threads the benchmark pins the service to when the caller has
/// not set `SEAMLESS_THREADS` (capped by the CPUs available).
const DEFAULT_THREADS: usize = 2;

/// Machine and build facts for one benchmark process.
#[derive(Debug, Clone)]
pub struct MachineContext {
    /// CPUs available to the process.
    pub nproc: usize,
    /// `SEAMLESS_THREADS` as the service resolved it.
    pub seamless_threads: usize,
    /// Commit of the measured code, or `unknown` outside a git checkout.
    pub git_sha: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo build profile (`release` for measured numbers).
    pub profile: &'static str,
}

impl MachineContext {
    /// The process-wide context, collected on first use.
    pub fn get() -> &'static MachineContext {
        static CONTEXT: OnceLock<MachineContext> = OnceLock::new();
        CONTEXT.get_or_init(MachineContext::collect)
    }

    fn collect() -> MachineContext {
        MachineContext {
            nproc: nproc(),
            seamless_threads: models::par::num_threads(),
            git_sha: git_sha(),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            profile: env!("PERFBENCH_PROFILE"),
        }
    }

    /// One JSON object with the context and the workload seed.
    pub fn to_json(&self, seed: u64) -> String {
        let mut out = format!(
            "{{\"nproc\":{},\"seamless_threads\":{},\"seed\":{seed}",
            self.nproc, self.seamless_threads
        );
        for (key, value) in [
            ("git_sha", self.git_sha.as_str()),
            ("rustc", self.rustc),
            ("profile", self.profile),
        ] {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
            obs::json::write_escaped(&mut out, value);
        }
        out.push('}');
        out
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Pins the service's worker count before anything reads it: an explicit
/// `SEAMLESS_THREADS` wins, otherwise `min(2, nproc)`.
pub fn pin_threads() {
    if std::env::var_os(models::par::THREADS_ENV).is_none() {
        let threads = DEFAULT_THREADS.min(nproc());
        std::env::set_var(models::par::THREADS_ENV, threads.to_string());
    }
}

fn git_sha() -> String {
    let manifest_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]).current_dir(manifest_dir);
    // Look no further up than the repository root: a copy of the tree
    // inside some other repository must not report that one's commit.
    if let Some(above_root) = manifest_dir.parent().and_then(|root| root.parent()) {
        git.env("GIT_CEILING_DIRECTORIES", above_root);
    }
    git.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|sha| sha.len() == 40 && sha.chars().all(|c| c.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".to_owned())
}
