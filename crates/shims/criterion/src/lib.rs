//! Offline stand-in for the `criterion` crate.
//!
//! Provides the API surface the workspace benches use — [`Criterion`]
//! builder methods, [`Bencher::iter`] / [`Bencher::iter_batched`],
//! [`BatchSize::SmallInput`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros — with a simple median-of-samples timer
//! instead of criterion's full statistics engine.
//!
//! Each benchmark prints `name  time: [median ns/iter]`, and when the
//! `CRITERION_JSON` environment variable names a file, appends one JSON
//! line per benchmark (`name`, `median_ns`, `mean_ns`, `samples`) so
//! baselines can be recorded from scripts.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// How `iter_batched` amortizes setup; only a hint here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Inputs are cheap to create; batch them finely.
    SmallInput,
    /// Inputs are expensive; batch coarsely.
    LargeInput,
}

/// Benchmark harness configuration and entry point.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 30,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(500),
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "need at least two samples");
        self.sample_size = n;
        self
    }

    /// Total time budget for the timed samples.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Time spent running the routine before sampling starts.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Runs `f` as the benchmark `name` and reports its timing.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            samples_ns: Vec::new(),
        };
        f(&mut b);
        b.report(name);
        self
    }
}

/// Timing context passed to each benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Times `routine`, called in a loop; reports ns per call.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm up and estimate the per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.warm_up_time {
            std::hint::black_box(routine());
            warm_iters += 1;
        }
        let est_ns = (warm_start.elapsed().as_nanos() as f64 / warm_iters as f64).max(1.0);

        let budget_ns = self.measurement_time.as_nanos() as f64 / self.sample_size as f64;
        let iters_per_sample = ((budget_ns / est_ns) as u64).max(1);

        self.samples_ns = (0..self.sample_size)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters_per_sample {
                    std::hint::black_box(routine());
                }
                t.elapsed().as_nanos() as f64 / iters_per_sample as f64
            })
            .collect();
    }

    /// Times `routine` over fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Warm up once to touch code and caches.
        let warm_start = Instant::now();
        loop {
            let input = setup();
            std::hint::black_box(routine(input));
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }

        self.samples_ns = (0..self.sample_size)
            .map(|_| {
                let input = setup();
                let t = Instant::now();
                std::hint::black_box(routine(input));
                t.elapsed().as_nanos() as f64
            })
            .collect();
    }

    fn report(&self, name: &str) {
        let mut s = self.samples_ns.clone();
        assert!(!s.is_empty(), "benchmark {name} recorded no samples");
        s.sort_by(|a, b| a.total_cmp(b));
        let median = s[s.len() / 2];
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        println!(
            "{name:<48} time: [{median:14.1} ns/iter]  (mean {mean:.1}, n={})",
            s.len()
        );
        if let Ok(path) = std::env::var("CRITERION_JSON") {
            use std::io::Write;
            let line = format!(
                "{{\"name\":\"{name}\",\"median_ns\":{median:.1},\"mean_ns\":{mean:.1},\"samples\":{}}}\n",
                s.len()
            );
            if let Ok(mut f) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
            {
                let _ = f.write_all(line.as_bytes());
            }
        }
    }
}

/// Defines a benchmark group function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c: $crate::Criterion = $config;
            $( $target(&mut c); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Defines `main` running the given benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_criterion() -> Criterion {
        Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(2))
    }

    #[test]
    fn iter_records_positive_samples() {
        let mut c = fast_criterion();
        c.bench_function("shim/iter", |b| b.iter(|| (0..100u64).sum::<u64>()));
    }

    #[test]
    fn iter_batched_excludes_setup() {
        let mut c = fast_criterion();
        c.bench_function("shim/iter_batched", |b| {
            b.iter_batched(
                || (0..64u64).collect::<Vec<_>>(),
                |v| v.iter().sum::<u64>(),
                BatchSize::SmallInput,
            )
        });
    }

    #[test]
    fn group_and_main_macros_expand() {
        fn target(c: &mut Criterion) {
            c.bench_function("shim/macro", |b| b.iter(|| 1 + 1));
        }
        criterion_group!(
            name = g;
            config = fast_criterion();
            targets = target
        );
        g();
    }
}
