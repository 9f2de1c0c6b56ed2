//! The environment fingerprint printed with every result.

use cgpa_obs::json::escape;
use std::path::Path;

/// Where and how a result was measured.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Online CPUs of the host.
    pub nproc: usize,
    /// `std::thread::available_parallelism` (the design-space explorer's
    /// fan-out width).
    pub available_parallelism: usize,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
    /// `rustc -V` of the building compiler.
    pub rustc: &'static str,
    /// Commit of the checkout, or `none` outside a git checkout.
    pub git_sha: String,
    /// Workload seed.
    pub seed: u64,
    /// Workload name.
    pub workload: String,
}

impl Fingerprint {
    /// Take the fingerprint of this process, run from the checkout root.
    #[must_use]
    pub fn take(workload: &str, seed: u64) -> Self {
        Fingerprint {
            nproc: online_cpus().unwrap_or(0),
            available_parallelism: std::thread::available_parallelism().map_or(0, usize::from),
            profile: env!("PERFBENCH_PROFILE"),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            git_sha: git_sha(Path::new(".git")).unwrap_or_else(|| "none".to_string()),
            seed,
            workload: workload.to_string(),
        }
    }

    /// One-line JSON rendering.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"available_parallelism\": {}, \"profile\": {}, \"rustc\": {}, \
             \"git_sha\": {}, \"seed\": {}, \"workload\": {}}}",
            self.nproc,
            self.available_parallelism,
            escape(self.profile),
            escape(self.rustc),
            escape(&self.git_sha),
            self.seed,
            escape(&self.workload)
        )
    }
}

/// Number of online CPUs, from `/sys/devices/system/cpu/online` (e.g.
/// `0-3,8`).
fn online_cpus() -> Option<usize> {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/online").ok()?;
    let mut n = 0;
    for part in text.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        n += hi.parse::<usize>().ok()?.checked_sub(lo.parse::<usize>().ok()?)? + 1;
    }
    Some(n)
}

/// The commit `HEAD` names, read from the `.git` directory without running
/// git (a checkout without `.git` yields `None`).
fn git_sha(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (sha, name) = l.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}
