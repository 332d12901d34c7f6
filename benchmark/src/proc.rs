//! Host-process figures from `/proc/self`: peak RSS, CPU time, page faults.

/// CPU time and minor faults of this process so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
}

/// Linux reports `/proc` CPU times in USER_HZ ticks, fixed at 100 on every
/// supported architecture.
const USER_HZ: f64 = 100.0;

/// Reads `/proc/self/stat`. Fields are counted after the last `)` because
/// the command name (field 2) may itself contain spaces or parentheses.
pub fn stat() -> Result<ProcStat, String> {
    let text =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    let rest = text
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("/proc/self/stat: no command field")?;
    // `rest` starts at field 3 (state); minflt is field 10, utime 14, stime 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> Result<u64, String> {
        fields
            .get(n - 3)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("/proc/self/stat: bad field {n}"))
    };
    Ok(ProcStat {
        user_s: field(14)? as f64 / USER_HZ,
        sys_s: field(15)? as f64 / USER_HZ,
        minor_faults: field(10)?,
    })
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM line".to_string())
}
