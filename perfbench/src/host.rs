//! Host discipline: what the machine offers, and what a result must
//! record about it.

use serde_json::{json, Value};

/// CPUs this process may run on (what `nproc` prints): the
/// `Cpus_allowed_list` of `/proc/self/status`, falling back to
/// `available_parallelism` where that file is missing.
#[must_use]
pub fn nproc() -> usize {
    let listed = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|list| count_cpu_list(list.trim()))
        })
        .filter(|&n| n > 0);
    listed.unwrap_or_else(available_parallelism)
}

/// `std::thread::available_parallelism`, or 1 when unknown.
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Counts the CPUs in a list such as `0-3,6,8-9`.
fn count_cpu_list(list: &str) -> usize {
    list.split(',')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('-') {
            Some((a, b)) => match (a.parse::<usize>(), b.parse::<usize>()) {
                (Ok(a), Ok(b)) if b >= a => b - a + 1,
                _ => 0,
            },
            None => usize::from(part.parse::<usize>().is_ok()),
        })
        .sum()
}

/// The thread or connection budget a workload may use: what it asks
/// for, never more than `nproc`.
#[must_use]
pub fn lanes(wanted: usize) -> usize {
    wanted.min(nproc()).max(1)
}

/// Process peak resident set (`VmHWM`) in MiB, where the platform
/// exposes it.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The host block every result records.
#[must_use]
pub fn describe() -> Value {
    json!({
        "nproc": nproc(),
        "available_parallelism": available_parallelism(),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "rustc": env!("PERFBENCH_RUSTC_VERSION"),
        "os": std::env::consts::OS,
        "arch": std::env::consts::ARCH,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_count() {
        assert_eq!(count_cpu_list("0-1"), 2);
        assert_eq!(count_cpu_list("0-3,6,8-9"), 7);
        assert_eq!(count_cpu_list("5"), 1);
        assert_eq!(count_cpu_list(""), 0);
    }
}
