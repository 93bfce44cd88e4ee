//! Process-level readers from Linux `/proc`: CPU time and peak resident
//! memory of the benchmark process.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 by the Linux ABI on every
/// architecture this benchmark targets).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds from the text of a `/proc/<pid>/stat`
/// file. The command name (field 2) may contain spaces and parentheses,
/// so fields are counted from the last `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state(3) … utime(14), stime(15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// The value in KiB of the `key:` line of a `/proc/<pid>/status` text.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// CPU seconds (user + system) this process has used so far, threads
/// that already exited included.
pub fn cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_seconds(&s))
        .unwrap_or(0.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_are_read_after_the_command_name() {
        let stat = "4242 (a (weird) name) R 1 2 3 0 -1 4194304 105 0 0 0 250 75 0 0 20 0 1 0";
        assert_eq!(parse_cpu_seconds(stat), Some(3.25));
        assert_eq!(parse_cpu_seconds("garbage"), None);
    }

    #[test]
    fn status_lines_are_matched_by_exact_key() {
        let status = "Name:\tperfbench\nVmHWM:\t  20480 kB\nVmHWMx:\t1 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1024));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(
            cpu_seconds() > before,
            "a 60 ms spin must register CPU time"
        );
        let block = vec![1u8; 32 << 20];
        std::hint::black_box(&block);
        assert!(
            peak_rss_mb() >= 32.0,
            "peak RSS must cover a touched 32 MiB block"
        );
    }
}
