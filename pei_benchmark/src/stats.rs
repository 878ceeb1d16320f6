//! Order statistics, output digests, and process memory.

use pei_system::RunResult;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The highest of the usual tail percentiles (99.9, 99, 95, 90, 50) that
/// leaves at least [`TAIL_SAMPLES`] of `n` samples beyond it, or `None`
/// when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_SAMPLES as f64)
}

/// Nearest-rank percentile `p` (0–100) of `xs`; `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Arithmetic mean; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Median (midpoint of the two middle values for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let q = quartiles(xs);
    q[1]
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method)
/// computes them, so spreads here match ones computed in Python.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => [f64::NAN; 3],
        1 => [v[0]; 3],
        ld => {
            let m = ld + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            [cut(1), cut(2), cut(3)]
        }
    }
}

/// Interquartile range as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2.abs()
}

/// FNV-1a-64 over a byte stream, chainable across results.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in one result: its rendered statistics report, then its
    /// cycle count as eight little-endian bytes.
    pub fn result(&mut self, stats_text: &str, cycles: u64) {
        self.bytes(stats_text.as_bytes());
        self.bytes(&cycles.to_le_bytes());
    }

    /// Digest of a single result.
    pub fn of_result(stats_text: &str, cycles: u64) -> Digest {
        let mut d = Digest::default();
        d.result(stats_text, cycles);
        d
    }

    pub fn of_run(r: &RunResult) -> Digest {
        Digest::of_result(&r.stats.to_string(), r.cycles)
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(600), Some(95.0)); // 30 beyond; p99 leaves 6
        assert_eq!(tail_percentile(200), Some(95.0)); // exactly 10 beyond
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(20_000), Some(99.9));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=600).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 300.0);
        assert_eq!(percentile(&xs, 95.0), 570.0);
        assert_eq!(percentile(&xs, 100.0), 600.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn digest_depends_on_order_and_cycles() {
        let mut a = Digest::default();
        a.result("x 1\n", 5);
        a.result("y 2\n", 6);
        let mut b = Digest::default();
        b.result("y 2\n", 6);
        b.result("x 1\n", 5);
        assert_ne!(a.0, b.0);
        let mut c = Digest::default();
        c.result("x 1\n", 4);
        let mut d = Digest::default();
        d.result("x 1\n", 5);
        assert_ne!(c.0, d.0);
        assert_eq!(Digest::default().hex(), "cbf29ce484222325");
    }
}
