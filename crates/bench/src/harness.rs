//! A minimal micro-benchmark harness for the `micro-*` experiments:
//! calibrated wall-clock timing with a criterion-like `Bencher::iter`
//! surface, no external dependencies.
//!
//! The numbers are means over a calibrated batch (~80ms of work after
//! warm-up), good for the order-of-magnitude comparisons the experiment
//! record needs; they are not a statistical benchmark suite.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

use gc_trace::Json;

/// Target measurement window per benchmark.
const WINDOW: Duration = Duration::from_millis(80);

/// One calibrated measurement — the machine-readable record behind the
/// row [`bench_function`] prints. Every measurement also lands in a
/// thread-local session; [`write_session_record`] drains the session into
/// a `BENCH_*.json` document so the micro-benchmarks leave the same
/// evidence trail as the other experiments.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The benchmark row's name.
    pub name: String,
    /// Iterations in the measured batch.
    pub iters: u64,
    /// Wall-clock time for the whole batch.
    pub total: Duration,
}

impl Measurement {
    /// Mean nanoseconds per iteration.
    pub fn ns_per_iter(&self) -> f64 {
        self.total.as_nanos() as f64 / self.iters as f64
    }

    /// The measurement as a flat JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("name", self.name.as_str())
            .set("iters", self.iters)
            .set("total_ns", self.total.as_nanos() as u64)
            .set("ns_per_iter", self.ns_per_iter())
    }
}

thread_local! {
    /// Measurements taken on this thread since the last
    /// [`write_session_record`] — benches are single-threaded drivers, so
    /// thread-local is exactly session-local.
    static SESSION: RefCell<Vec<Measurement>> = const { RefCell::new(Vec::new()) };
}

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

/// Runs one benchmark, prints `name ... ns/iter`, and returns (and
/// session-records) the [`Measurement`].
pub fn bench_function(name: &str, mut f: impl FnMut(&mut Bencher)) -> Measurement {
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
    let m = Measurement {
        name: name.to_string(),
        iters: n,
        total: elapsed,
    };
    SESSION.with(|s| s.borrow_mut().push(m.clone()));
    m
}

/// Drains every measurement this thread's [`bench_function`] calls have
/// recorded into a `gc-bench/v1` record and writes it to
/// `experiments_output/BENCH_<bench>.json` (via [`crate::save_record`]).
pub fn write_session_record(bench: &str, params: &[(&str, Json)]) {
    let measurements: Vec<Json> = SESSION.with(|s| {
        s.borrow_mut()
            .drain(..)
            .map(|m| m.to_json())
            .collect::<Vec<Json>>()
    });
    let record = gc_trace::bench_record(
        bench,
        params,
        &[("measurements", Json::from(measurements))],
        None,
    );
    crate::save_record(bench, &record);
}
