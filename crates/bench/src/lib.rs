#![warn(missing_docs)]

//! # odx-bench — the figure/table reproduction harness
//!
//! `cargo run --release -p odx-bench --bin repro [-- <command>]` prints
//! every table and figure of the paper next to the values this
//! reproduction measures (and optionally dumps the plotted series as TSV).
//! Timing lives in the standalone `perfbench/` crate, which reads
//! [`peak_rss_mb`] from here.
//!
//! The row-formatting helpers `repro` shares live here.

use odx::stats::Summary;

/// Format a `paper vs measured` row.
pub fn row(label: &str, paper: &str, measured: String) -> String {
    format!("  {label:<42} paper: {paper:<18} measured: {measured}")
}

/// Compact `min/median/mean/max` rendering of a summary.
pub fn mmmm(s: &Summary) -> String {
    format!("min {:.0} / med {:.0} / mean {:.0} / max {:.0}", s.min, s.median, s.mean, s.max)
}

/// Relative difference as a signed percentage string.
pub fn rel(measured: f64, paper: f64) -> String {
    if paper == 0.0 {
        return String::from("n/a");
    }
    format!("{:+.0}%", 100.0 * (measured - paper) / paper)
}

/// Peak resident set size in MB, read from `/proc/self/status` (`VmHWM`).
/// `None` wherever the platform doesn't expose procfs. Wall-section
/// material: nondeterministic, never part of a deterministic export.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_formats_signed_percentages() {
        assert_eq!(rel(110.0, 100.0), "+10%");
        assert_eq!(rel(90.0, 100.0), "-10%");
        assert_eq!(rel(1.0, 0.0), "n/a");
    }

    #[test]
    fn row_alignment() {
        let r = row("x", "1", "2".to_owned());
        assert!(r.contains("paper: 1"));
        assert!(r.contains("measured: 2"));
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_reads_a_positive_high_water_mark() {
        let mb = peak_rss_mb().expect("procfs exposes VmHWM on Linux");
        assert!(mb > 0.0, "a running process has touched memory: {mb}");
    }
}
