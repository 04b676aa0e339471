//! A minimal micro-benchmark harness for the `micro-*` experiments:
//! calibrated wall-clock timing with a criterion-like `Bencher::iter`
//! surface, no external dependencies.
//!
//! The numbers are means over a calibrated batch (~80ms of work after
//! warm-up), good for the order-of-magnitude comparisons the experiment
//! record needs; they are not a statistical benchmark suite.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target measurement window per benchmark.
const WINDOW: Duration = Duration::from_millis(80);

/// Collects one calibrated measurement inside [`bench_function`].
pub struct Bencher {
    measured: Option<(u64, Duration)>,
}

impl Bencher {
    /// Times `f` over a batch sized so the whole batch takes roughly
    /// [`WINDOW`]; earlier smaller batches double as warm-up.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let mut n: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..n {
                black_box(f());
            }
            let elapsed = t0.elapsed();
            if elapsed >= WINDOW || n >= 1 << 30 {
                self.measured = Some((n, elapsed));
                return;
            }
            // Scale the batch toward the window (at least doubling).
            let scale = if elapsed.is_zero() {
                100
            } else {
                (WINDOW.as_nanos() * 5 / 4 / elapsed.as_nanos().max(1)) as u64
            };
            n = n.saturating_mul(scale.max(2));
        }
    }

    /// Like [`Bencher::iter`] but with a per-iteration `setup` whose cost
    /// is excluded from the measurement.
    pub fn iter_batched<S, R>(&mut self, mut setup: impl FnMut() -> S, mut f: impl FnMut(S) -> R) {
        // Warm-up.
        for _ in 0..16 {
            black_box(f(setup()));
        }
        let mut total = Duration::ZERO;
        let mut n: u64 = 0;
        while total < WINDOW && n < 1 << 24 {
            let input = setup();
            let t0 = Instant::now();
            black_box(f(input));
            total += t0.elapsed();
            n += 1;
        }
        self.measured = Some((n, total));
    }
}

/// Runs one benchmark and prints `name ... ns/iter`.
pub fn bench_function(name: &str, mut f: impl FnMut(&mut Bencher)) {
    let mut b = Bencher { measured: None };
    f(&mut b);
    let (n, elapsed) = b.measured.expect("the bench closure must call iter");
    let per = elapsed.as_nanos() as f64 / n as f64;
    if per >= 1_000_000.0 {
        println!("{name:<48} {:>14.3} ms/iter ({n} iters)", per / 1e6);
    } else if per >= 1_000.0 {
        println!("{name:<48} {:>14.3} µs/iter ({n} iters)", per / 1e3);
    } else {
        println!("{name:<48} {:>14.1} ns/iter ({n} iters)", per);
    }
}
