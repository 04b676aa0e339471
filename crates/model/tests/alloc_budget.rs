//! The checker's hot path stays off the heap.
//!
//! On the benchmark's `check-raw` instance — two mutators sharing one
//! object, no allocation, `buffer_cap = 2` — the first 100,000 states are
//! expanded breadth-first under a counting allocator. Before the state was
//! packed this measured 46.2 allocations per successor in
//! `successors_into`, 14.2 per `ModelState::clone` and 15.6 per evaluation
//! of the §3.2 suite. An inline state and sink-form non-determinism left
//! the three scratch vectors of one expansion (offered requests, offered
//! responses, unfolding work), 0.82 allocations per successor on this
//! instance; while the non-deterministic steps (`mut-load`,
//! `mut-store-begin`, `mut-discard`, `sys-dequeue`) returned a `Vec` each,
//! it was 1.26. Since each process's steps come from its memo, an
//! expansion allocates only when it meets a slot for the first time: 0.03
//! allocations per successor (0.10 per expanded state), debug builds'
//! re-walk of every hit included.
//!
//! The other two tests run the benchmark's checker for 100,000 states. A
//! whole `Checker::run` made about three allocations per visited state —
//! those three scratch vectors, once per expansion — once claimed states
//! went into recycled arena blocks instead of one `Box` each (4.01 per
//! state then); with the memo it makes 0.13. And the same allocator tracks
//! live bytes, to pin what the run retains per visited state at its peak:
//! the 8-byte parent link, the seen-set bucket, the memo's share, and the
//! state's share of the levels in flight — the level being expanded, the
//! one being claimed and the one being drained, each a buffer of 20-byte
//! records (the state's four slot ids behind a length) since levels are
//! kept encoded; while they were arena blocks of 1,160-byte states, two
//! levels of those were most of the peak. With a 92-byte action in every
//! link that was 96 bytes per state more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::hash::{BuildHasher, RandomState};

use gc_model::invariants::combined_property;
use gc_model::{GcModel, InitialHeap, ModelConfig, ModelState};
use mc::{Bound, Checker, CheckerConfig, Outcome, TransitionSystem};

struct Counting;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not freed, and their high-water
    /// mark since it was last reset.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn live_changed(by: isize) {
    let live = LIVE.with(|l| l.replace(l.get() + by)) + by;
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain thread-local `Cell`s with no
// destructor and no allocation of their own.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        live_changed(layout.size() as isize);
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_changed(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        live_changed(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// The most bytes this thread holds at once while running `f`, over what
/// it held on entry.
fn peak_bytes<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let result = f();
    ((PEAK.with(Cell::get) - before) as usize, result)
}

const STATES: usize = 100_000;

/// The benchmark's `check-raw` instance.
fn check_raw() -> ModelConfig {
    let mut cfg = ModelConfig::small(2, 2);
    cfg.initial = InitialHeap::shared_object(2, 1);
    cfg.ops.alloc = false;
    cfg.buffer_cap = 2;
    cfg
}

#[test]
fn successors_clone_and_invariants_stay_within_their_allocation_budgets() {
    let cfg = check_raw();
    let model = GcModel::new(cfg.clone());
    let property = combined_property(&cfg);

    // Fingerprints, not states: the search is scaffolding, not the subject.
    let fingerprints = RandomState::new();
    let mut frontier: Vec<ModelState> = model.initial_states();
    let mut seen: HashSet<u64> = frontier.iter().map(|s| fingerprints.hash_one(s)).collect();
    let mut scratch = Vec::with_capacity(64);
    let (mut expanded, mut successors) = (0u64, 0u64);
    let (mut in_successors, mut in_clone, mut in_invariants) = (0u64, 0u64, 0u64);
    'search: while !frontier.is_empty() {
        let mut next = Vec::new();
        for state in &frontier {
            scratch.clear();
            let (n, ()) = allocations(|| model.successors_into(state, &mut scratch));
            in_successors += n;
            expanded += 1;
            successors += scratch.len() as u64;
            #[allow(clippy::clone_on_copy)] // `clone` is the call being measured
            let (n, copy) = allocations(|| state.clone());
            in_clone += n;
            let (n, violation) = allocations(|| property.violation(&copy));
            in_invariants += n;
            assert_eq!(violation, None);
            for (_, succ) in scratch.drain(..) {
                if seen.insert(fingerprints.hash_one(succ)) {
                    next.push(succ);
                }
            }
            if expanded as usize == STATES {
                break 'search;
            }
        }
        frontier = next;
    }
    assert_eq!(expanded as usize, STATES, "the instance has 584,854 states");

    let per_successor = in_successors as f64 / successors as f64;
    println!(
        "{expanded} states expanded, {successors} successors: \
         {per_successor:.2} allocations per successor in successors_into \
         ({:.2} per expanded state), {in_clone} in ModelState::clone, \
         {in_invariants} in combined_property",
        in_successors as f64 / expanded as f64
    );
    assert!(
        5 * in_successors <= expanded && per_successor <= 0.05,
        "{per_successor} allocations per successor, {in_successors} in {expanded} expansions"
    );
    assert_eq!(in_clone, 0);
    assert_eq!(in_invariants, 0);
}

/// The benchmark's checker on `check-raw`, run to [`STATES`] states:
/// hash-compact, one thread (so every allocation of the run is this
/// thread's). The model and checker are built before the run is.
fn run_to_the_bound() -> impl Fn() {
    let cfg = check_raw();
    let model = GcModel::new(cfg.clone());
    let checker = Checker::with_config(CheckerConfig {
        max_states: STATES,
        hash_compact: true,
        ..CheckerConfig::default()
    })
    .property(combined_property(&cfg));
    move || {
        assert!(matches!(
            checker.run(&model),
            Outcome::BoundReached {
                bound: Bound::States(STATES),
                ..
            }
        ));
    }
}

#[test]
fn a_run_makes_a_fraction_of_an_allocation_per_visited_state() {
    let (n, ()) = allocations(run_to_the_bound());
    let per_state = n as f64 / STATES as f64;
    println!("{n} allocations in a {STATES}-state run: {per_state:.2} per visited state");
    // Measured 0.13: memo misses, the engine's buffers of records (0.12
    // while they were pooled) and levels.
    // Three scratch vectors per expansion made it 2.98.
    assert!(per_state <= 0.25, "{per_state} allocations per state");
}

#[test]
fn a_run_retains_a_bounded_number_of_bytes_per_visited_state() {
    let (peak, ()) = peak_bytes(run_to_the_bound());
    let per_state = peak as f64 / STATES as f64;
    println!("{peak} bytes at the peak of a {STATES}-state run: {per_state:.1} per visited state");
    // Measured 44.8 with the levels in flight encoded as slot ids; 146.3
    // with them in arena blocks of 1,160-byte states and each process's
    // memo of its slots, 140.1 before the memo; 133.5-135.5 with one `Box`
    // per 1,088-byte state (the seen-set's shard sizes follow the run's
    // random fingerprint keys); 237 with the action stored in every link.
    assert!(per_state <= 60.0, "{per_state} bytes retained per state");
}
