//! Order statistics and the machine stamp.

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// the closest ranks; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of the percentiles 99, 90, 75 and 50 that has at least
/// ten of `n` samples beyond it, as a fraction (`0.5` when `n` < 20).
pub fn tail_quantile(n: usize) -> f64 {
    [0.99, 0.9, 0.75]
        .into_iter()
        .find(|q| (n as f64) * (1.0 - q) >= 10.0)
        .unwrap_or(0.5)
}

/// Peak resident set (`VmHWM`) of a process (`self` or a pid), in MB;
/// 0 when unreadable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let kb = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    kb.unwrap_or(0.0) / 1024.0
}

/// User plus system CPU seconds a process has used so far, from
/// `/proc/<pid>/stat` (clock ticks at the kernel's fixed 100 Hz).
pub fn proc_cpu_s(pid: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout, read from `.git` in the working directory
/// (no parent directory is searched); `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
