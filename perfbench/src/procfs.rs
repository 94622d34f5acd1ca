//! Server CPU time, peak memory and the host's stolen CPU time, read
//! from `/proc` (Linux).

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed
/// at 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of `pid`.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("read /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("malformed /proc stat field {}", i + 3))
    };
    Ok((tick(11)? + tick(12)?) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) of `pid` in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc status".to_string())
}

/// The CPUs this process may run on (`Cpus_allowed_list` of
/// `/proc/self/status`, such as `0-1` or `0,2-3`), ascending.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let list = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    parse_cpu_list(list.trim())
}

fn parse_cpu_list(list: &str) -> Result<Vec<usize>, String> {
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let bad = || format!("malformed CPU list `{list}`");
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi): (usize, usize) = (
            lo.parse().map_err(|_| bad())?,
            hi.parse().map_err(|_| bad())?,
        );
        cpus.extend(lo..=hi);
    }
    Ok(cpus)
}

/// The machine-wide CPU time counters of `/proc/stat`: `(steal, total)`
/// ticks summed over all CPUs. Steal is time the hypervisor ran other
/// guests while this one had work; it slows every thread of the run.
pub fn cpu_ticks() -> Result<(u64, u64), String> {
    let stat =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("read /proc/stat: {e}"))?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("cpu "))
        .ok_or("malformed /proc/stat")?
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    let steal = *ticks.get(7).ok_or("no steal field in /proc/stat")?;
    Ok((steal, ticks.iter().sum()))
}

/// The server's CPU time and the machine's tick counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at: std::time::Instant,
    /// [`cpu_seconds`] of the server.
    pub cpu_s: f64,
    /// [`cpu_ticks`] of the machine.
    pub ticks: (u64, u64),
}

/// A [`Sample`] of server `pid`, taken now.
pub fn sample(pid: u32) -> Result<Sample, String> {
    Ok(Sample {
        at: std::time::Instant::now(),
        cpu_s: cpu_seconds(pid)?,
        ticks: cpu_ticks()?,
    })
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process() {
        let pid = std::process::id();
        let busy: u64 = (0..5_000_000u64).fold(0, |a, x| a.wrapping_add(x * x));
        std::hint::black_box(busy);
        assert!(cpu_seconds(pid).expect("stat readable") >= 0.0);
        assert!(peak_rss_mb(pid).expect("status readable") > 0.0);
        let (steal, total) = cpu_ticks().expect("/proc/stat readable");
        assert!(steal <= total && total > 0);
        assert_eq!(steal_share((10, 100), (15, 200)), 0.05);
        assert!(!allowed_cpus().expect("status readable").is_empty());
    }

    #[test]
    fn cpu_lists() {
        assert_eq!(parse_cpu_list("0-1"), Ok(vec![0, 1]));
        assert_eq!(parse_cpu_list("0,2-4,7"), Ok(vec![0, 2, 3, 4, 7]));
        assert_eq!(parse_cpu_list("3"), Ok(vec![3]));
        assert!(parse_cpu_list("0-x").is_err());
    }
}
