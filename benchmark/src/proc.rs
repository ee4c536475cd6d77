//! Process-level counters read from `/proc/self` (Linux only; every
//! reader returns 0 where the file is missing).

use std::fs;

/// Kernel clock ticks per second behind `/proc/self/stat`'s utime and
/// stime. Linux has fixed `USER_HZ` at 100 on every architecture this
/// builds for; without libc there is no `sysconf` to ask.
const TICKS_PER_S: f64 = 100.0;

/// Process CPU time (user + system, all threads) in milliseconds.
pub fn cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its
    // closing parenthesis. utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 * 1000.0 / TICKS_PER_S
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Voluntary context switches summed over the live threads. Each
/// blocking hop between two threads is one, so this counts hops the
/// engine's own counters cannot see.
pub fn voluntary_ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| status_field(&s, "voluntary_ctxt_switches"))
        .sum()
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM") as f64 / 1024.0
}

/// A kernel CPU list such as `0-1` or `0,2-3`, expanded.
fn cpu_list(list: &str) -> Vec<u32> {
    list.trim()
        .split(',')
        .filter_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            Some(lo.parse::<u32>().ok()?..=hi.parse::<u32>().ok()?)
        })
        .flatten()
        .collect()
}

/// CPUs this process may run on (its affinity mask), ascending.
pub fn allowed_cpus() -> Vec<u32> {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"));
    cpu_list(list.unwrap_or(""))
}

/// CPUs the machine has online, whatever this process is allowed.
pub fn online_cpus() -> u64 {
    let list = fs::read_to_string("/sys/devices/system/cpu/online").unwrap_or_default();
    cpu_list(&list).len() as u64
}

/// Live threads of this process.
pub fn threads() -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "Threads")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t    2048 kB\nThreads:\t7\nvoluntary_ctxt_switches:\t42\n";
        assert_eq!(status_field(s, "VmHWM"), 2048);
        assert_eq!(status_field(s, "Threads"), 7);
        assert_eq!(status_field(s, "voluntary_ctxt_switches"), 42);
        assert_eq!(status_field(s, "Missing"), 0);
    }

    #[test]
    fn cpu_lists_expand() {
        assert_eq!(cpu_list("0-1\n"), vec![0, 1]);
        assert_eq!(cpu_list("\t0,2-3"), vec![0, 2, 3]);
        assert_eq!(cpu_list("5"), vec![5]);
        assert_eq!(cpu_list(""), Vec::<u32>::new());
    }
}
