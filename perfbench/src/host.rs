//! The host shape every result is recorded with: results from hosts of
//! different shapes are not comparable, and `compare.py` refuses them.

use std::path::Path;

pub struct HostShape {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// Width of the work-stealing pool (`WG_THREADS` overrides it).
    pub pool_width: usize,
    /// SIMD level the tensor kernels dispatch to (`WG_SIMD` overrides it).
    pub simd: &'static str,
    /// Git revision of the checkout, or `unknown` outside a git tree.
    pub git_rev: String,
}

impl HostShape {
    pub fn detect() -> Self {
        HostShape {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_width: rayon::current_num_threads(),
            simd: wg_tensor::simd::level().name(),
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"pool_width\": {}, \"simd\": \"{}\", \"git_rev\": \"{}\"}}",
            self.cores, self.pool_width, self.simd, self.git_rev
        )
    }
}

/// Resolve `HEAD` by reading the git directory (no subprocess).
fn git_rev(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, r) = l.split_once(' ')?;
        (r == name).then(|| rev.to_string())
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
