//! `/proc` sampling: CPU seconds and peak resident memory per process, and
//! the host facts recorded with every result.

/// Clock ticks per second in `/proc/<pid>/stat` (Linux `USER_HZ`, 100 on
/// every mainstream kernel configuration).
const USER_HZ: f64 = 100.0;

fn proc_file(pid: Option<u32>, file: &str) -> Option<String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    };
    std::fs::read_to_string(path).ok()
}

/// Peak resident set size (`VmHWM`) in MiB of `pid`, or of this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let status = proc_file(pid, "status")?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU seconds consumed so far by every thread of `pid`
/// (or of this process), exited threads included.
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    let stat = proc_file(pid, "stat")?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// One-minute load average of the host.
pub fn load1() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
