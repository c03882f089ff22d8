//! What the operating system says about this process (Linux `/proc`).

use std::fs;

/// Peak resident set size in MB (`VmHWM`), or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used, or
/// `None` off Linux. `/proc` counts in clock ticks, 100 a second on
/// every Linux port.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; the numeric fields follow its
    // closing parenthesis, and utime/stime are the 14th and 15th fields.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}
