//! Order statistics, and the host facts every result carries.

use std::sync::OnceLock;

/// A sorted sample.
#[derive(Debug, Clone)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// The sample `values`, in any order.
    pub fn new(mut values: Vec<f64>) -> Dist {
        values.sort_by(f64::total_cmp);
        Dist { sorted: values }
    }

    /// Sample size.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The nearest-rank `q`-quantile, `None` for an empty sample.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.sorted[rank - 1])
    }

    /// Samples strictly above the `q`-quantile's rank.
    pub fn beyond(&self, q: f64) -> usize {
        let n = self.sorted.len();
        n - ((q * n as f64).ceil() as usize).min(n)
    }

    /// A percentile is reported only with at least ten samples beyond it.
    pub fn supports(&self, q: f64) -> bool {
        self.beyond(q) >= 10
    }

    /// Arithmetic mean, `None` for an empty sample.
    pub fn mean(&self) -> Option<f64> {
        (!self.sorted.is_empty()).then(|| self.sorted.iter().sum::<f64>() / self.len() as f64)
    }
}

/// The median of `values` (`NaN` if empty).
pub fn median(values: &[f64]) -> f64 {
    Dist::new(values.to_vec()).quantile(0.5).unwrap_or(f64::NAN)
}

/// Peak resident set size of this process in MiB, from `VmHWM` in
/// `/proc/self/status`; `None` where that is unavailable.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time of the core the process is pinned to, or of the whole machine
/// when it is not, from `/proc/stat`, in clock ticks: `[busy, steal]`,
/// where busy is user, nice, system, irq and softirq time, and steal is
/// time the hypervisor ran other guests while the core wanted to run.
/// Zero where that is unavailable.
pub fn cpu_ticks() -> [u64; 2] {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let label = pinned_core().map_or("cpu".to_string(), |c| format!("cpu{c}"));
    let f: Vec<u64> = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(label.as_str()))
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().unwrap_or(0))
        .chain(std::iter::repeat(0))
        .take(8)
        .collect();
    [f[0] + f[1] + f[2] + f[5] + f[6], f[7]]
}

/// The share of the CPU time wanted over `ticks` (a difference of two
/// [`cpu_ticks`] readings) that the hypervisor withheld.
pub fn steal_share(ticks: [u64; 2]) -> f64 {
    let [busy, steal] = ticks;
    steal as f64 / (busy + steal).max(1) as f64
}

static HOST_CORES: OnceLock<usize> = OnceLock::new();
static PINNED_CORE: OnceLock<usize> = OnceLock::new();

/// Cores available to this process before [`pin_to_one_core`].
pub fn nproc() -> usize {
    *HOST_CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The core [`pin_to_one_core`] pinned the process to, if it did.
pub fn pinned_core() -> Option<usize> {
    PINNED_CORE.get().copied()
}

/// Run the calling thread, and every thread it starts later, on the last
/// core it may use. Call it before any other thread starts.
///
/// With one closed-loop session a program's work moves between the
/// session and the applier thread but never overlaps, so one core does
/// all of it, and the calibration kernel timed between programs on that
/// core measures the speed of the core that ran them.
#[cfg(target_os = "linux")]
pub fn pin_to_one_core() {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    nproc();
    // A cpu_set_t: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a cpu_set_t-sized buffer and pid 0 is this thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return;
    }
    let Some(word) = mask.iter().rposition(|&w| w != 0) else {
        return;
    };
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0 {
        let _ = PINNED_CORE.set(word * 64 + bit);
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_core() {
    nproc();
}

/// The source revision, when the benchmark is built inside a git
/// checkout; `"unknown"` otherwise.
pub fn git_rev() -> String {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    // Stop the search at the repository root: a checkout without its own
    // `.git` must not report the revision of an enclosing repository.
    let ceiling = manifest
        .parent()
        .and_then(std::path::Path::parent)
        .unwrap_or(manifest);
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(manifest)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_and_support() {
        let d = Dist::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(d.quantile(0.5), Some(500.0));
        assert_eq!(d.quantile(0.99), Some(990.0));
        assert_eq!(d.beyond(0.99), 10);
        assert!(d.supports(0.99));
        assert!(!Dist::new(vec![1.0; 999]).supports(0.99));
        assert_eq!(Dist::new(vec![]).quantile(0.5), None);
    }
}
