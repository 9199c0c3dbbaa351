//! Order statistics and the host stamp printed with every result.

/// Median, quartiles and sample count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`; an empty set reads as zeros with `n = 0`.
    pub fn of(samples: &[f64]) -> Summary {
        let mut s: Vec<f64> = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        if n == 0 {
            return Summary {
                median: 0.0,
                q1: 0.0,
                q3: 0.0,
                n,
            };
        }
        let (q1, q3) = quartiles(&s);
        Summary {
            median: median_sorted(&s),
            q1,
            q3,
            n,
        }
    }
}

/// Median of an ascending, non-empty slice.
fn median_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles of an ascending, non-empty slice, by the
/// "exclusive" method of Python's `statistics.quantiles(data, n=4)`.
fn quartiles(s: &[f64]) -> (f64, f64) {
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median of unsorted samples (0 for an empty set).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// The machine a result was measured on.
#[derive(Clone, Debug)]
pub struct Host {
    pub cpu_model: String,
    pub nproc: usize,
    pub avx2: bool,
    pub avx512: bool,
    pub workers: usize,
}

impl Host {
    pub fn detect(workers: usize) -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        #[cfg(target_arch = "x86_64")]
        let (avx2, avx512) = (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("avx512f"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, avx512) = (false, false);
        Host {
            cpu_model,
            nproc,
            avx2,
            avx512,
            workers,
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"cpu_model\": \"{}\", \"nproc\": {}, \"avx2\": {}, \"avx512\": {}, \"workers\": {}}}",
            self.cpu_model.replace(['"', '\\'], ""),
            self.nproc,
            self.avx2,
            self.avx512,
            self.workers
        )
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
    }
}
