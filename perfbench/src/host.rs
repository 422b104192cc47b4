//! Host metadata and process memory, recorded with every result so that
//! figures from different commits and machines can be told apart.

use std::path::Path;

use swat_serve::json::Json;

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// The compiler that built the benchmark.
    pub rustc: String,
    /// The checkout's git commit, when the checkout is a git repository.
    pub commit: String,
}

impl HostInfo {
    /// Reads the metadata of this host and checkout.
    pub fn detect() -> HostInfo {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        HostInfo {
            cpu,
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            commit: git_commit(
                &Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("..")
                    .join(".git"),
            )
            .unwrap_or_else(|| "unknown (not a git checkout)".to_string()),
        }
    }

    /// The metadata as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cpu", Json::Str(self.cpu.clone())),
            ("nproc", Json::Int(self.nproc as i64)),
            ("rustc", Json::Str(self.rustc.clone())),
            ("commit", Json::Str(self.commit.clone())),
        ])
    }
}

/// Resolves `HEAD` in a git directory without running git.
fn git_commit(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' '))
        .map(str::to_string)
}

/// A `VmHWM` / `VmRSS`-style field of `/proc/self/status`, in MB (10^6
/// bytes); 0 where the file is unavailable.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Peak resident set size of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size of this process, MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}
