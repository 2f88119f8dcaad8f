//! Measurement helpers: order statistics, the host calibration kernel,
//! and resident-set and CPU readings of a process.

use std::hint::black_box;
use std::time::Instant;

/// Quantile `q` (0..=1) of `values` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds taken by a fixed integer kernel that touches none of
/// the program's code, as the median of five passes. It moves only
/// when the host does, so a run's figures can be read against it.
pub fn calibration_ms() -> f64 {
    let mut passes = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        let mut table = vec![0u64; 1 << 14];
        let mask = table.len() - 1;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for i in 0..(1usize << 22) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) & mask;
            table[j] = table[j].wrapping_add(x);
            acc ^= table[i.wrapping_mul(7) & mask];
        }
        black_box(acc);
        passes.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&passes)
}

/// Peak resident set (`VmHWM`) of process `pid` (`None` = this
/// process) in MiB, or `None` when `/proc` cannot be read.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU seconds of process `pid`, from
/// `/proc/<pid>/stat`. Ticks are taken as 1/100 s, the `CLK_TCK` of
/// every Linux configuration this benchmark targets.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn own_process_readings_are_available() {
        assert!(peak_rss_mb(None).is_some_and(|mb| mb > 0.0));
        assert!(cpu_seconds(std::process::id()).is_some());
    }
}
