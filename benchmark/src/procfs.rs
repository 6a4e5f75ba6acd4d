//! What Linux says about this process: CPU time consumed and peak memory.

use std::fs;

/// Kernel clock ticks per second. `/proc/self/stat` reports in
/// `USER_HZ`, which Linux fixes at 100 on every architecture.
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) this process has consumed, all threads,
/// including ones that have already exited.
pub fn process_cpu_secs() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name (which may hold
    // spaces); utime and stime are fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_plausible_values() {
        let before = process_cpu_secs();
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_secs() >= before + 0.02);
        assert!(peak_rss_mb() > 1.0);
    }
}
