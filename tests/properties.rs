//! Randomized property tests over the substrates and the runtime: seeded
//! in-repo generation (SplitMix64) instead of an external property-testing
//! framework, so every failure reports a seed that replays it exactly.

use relaxing_safely::gc::{Collector, GcConfig};
use relaxing_safely::serve::SplitMix64;
use relaxing_safely::tso::{Machine, MemoryModel, ThreadId};
use relaxing_safely::types::{AbstractHeap, Ref, Tricolor};

/// The SplitMix64 stream used for all generation below (the serve
/// harness's generator, seeded away from the small test seeds).
struct Rng(SplitMix64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(SplitMix64::new(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1),
        ))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `0..n` (n > 0).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn u8(&mut self) -> u8 {
        self.next_u64() as u8
    }
}

// ---------------------------------------------------------------------
// TSO machine laws
// ---------------------------------------------------------------------

/// A scripted machine operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write(u8, u8, u8), // thread, addr, value
    Commit(u8),
    Read(u8, u8),
    Fence(u8),
}

fn gen_op(rng: &mut Rng, threads: u8, addrs: u8) -> Op {
    match rng.below(4) {
        0 => Op::Write(
            rng.below(threads as u64) as u8,
            rng.below(addrs as u64) as u8,
            rng.u8(),
        ),
        1 => Op::Commit(rng.below(threads as u64) as u8),
        2 => Op::Read(
            rng.below(threads as u64) as u8,
            rng.below(addrs as u64) as u8,
        ),
        _ => Op::Fence(rng.below(threads as u64) as u8),
    }
}

fn gen_ops(rng: &mut Rng, threads: u8, addrs: u8, max_len: u64) -> Vec<Op> {
    let len = 1 + rng.below(max_len);
    (0..len).map(|_| gen_op(rng, threads, addrs)).collect()
}

/// Reads by the issuing thread always see its own newest pending write
/// (store-buffer forwarding), whatever else happened.
#[test]
fn tso_reads_forward_own_newest_write() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed);
        let ops = gen_ops(&mut rng, 3, 4, 59);
        let mut m: Machine<u8, u8> = Machine::new(3, MemoryModel::Tso);
        for a in 0..4 {
            m.initialize(a, 0);
        }
        // Shadow: per (thread, addr) the newest pending value; and the
        // committed memory.
        let mut pending: std::collections::HashMap<(u8, u8), u8> = Default::default();
        let mut queue: Vec<(u8, u8, u8)> = Vec::new(); // FIFO of (t, a, v)
        let mut memory: std::collections::HashMap<u8, u8> = (0..4).map(|a| (a, 0)).collect();
        for op in ops {
            match op {
                Op::Write(t, a, v) => {
                    m.write(ThreadId::new(t as usize), a, v).unwrap();
                    pending.insert((t, a), v);
                    queue.push((t, a, v));
                }
                Op::Commit(t) => {
                    let pos = queue.iter().position(|&(qt, _, _)| qt == t);
                    match m.commit(ThreadId::new(t as usize)) {
                        Ok((a, v)) => {
                            let (qt, qa, qv) = queue.remove(pos.unwrap());
                            assert_eq!((qt, qa, qv), (t, a, v), "seed {seed}: FIFO order");
                            memory.insert(a, v);
                            // Is this still the newest pending for (t, a)?
                            if !queue.iter().any(|&(qt2, qa2, _)| qt2 == t && qa2 == a) {
                                pending.remove(&(t, a));
                            }
                        }
                        Err(_) => assert!(
                            pos.is_none(),
                            "seed {seed}: commit only fails on empty buffer"
                        ),
                    }
                }
                Op::Read(t, a) => {
                    let got = m.read(ThreadId::new(t as usize), &a).unwrap();
                    let want = pending
                        .get(&(t, a))
                        .copied()
                        .or_else(|| memory.get(&a).copied());
                    assert_eq!(got, want, "seed {seed}");
                }
                Op::Fence(t) => {
                    let ok = m.mfence(ThreadId::new(t as usize)).is_ok();
                    let empty = !queue.iter().any(|&(qt, _, _)| qt == t);
                    assert_eq!(ok, empty, "seed {seed}: fence enabled iff buffer empty");
                }
            }
        }
    }
}

/// Under SC the machine behaves like a plain map: every read sees the
/// latest write, buffers stay empty.
#[test]
fn sc_machine_is_a_plain_map() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed.wrapping_add(1 << 32));
        let ops = gen_ops(&mut rng, 2, 4, 39);
        let mut m: Machine<u8, u8> = Machine::new(2, MemoryModel::Sc);
        let mut shadow: std::collections::HashMap<u8, u8> = Default::default();
        for op in ops {
            match op {
                Op::Write(t, a, v) => {
                    m.write(ThreadId::new(t as usize), a, v).unwrap();
                    shadow.insert(a, v);
                }
                Op::Read(t, a) => {
                    assert_eq!(
                        m.read(ThreadId::new(t as usize), &a).unwrap(),
                        shadow.get(&a).copied(),
                        "seed {seed}"
                    );
                }
                Op::Fence(t) => assert!(m.can_mfence(ThreadId::new(t as usize)), "seed {seed}"),
                Op::Commit(_) => {} // never enabled under SC
            }
        }
    }
}

// ---------------------------------------------------------------------
// Heap / tricolor laws
// ---------------------------------------------------------------------

fn gen_heap(rng: &mut Rng) -> AbstractHeap {
    // Up to 8 objects, 2 fields, random flags and edges.
    let n = 1 + rng.below(7) as usize;
    let mut h = AbstractHeap::new(8, 2);
    for _ in 0..n {
        h.alloc(false);
    }
    let edits = rng.below(16);
    for _ in 0..edits {
        let flag = rng.below(2) == 1;
        let src = Ref::new((rng.below(8) % n as u64) as u8);
        let dst = Ref::new((rng.below(8) % n as u64) as u8);
        h.set_flag(src, flag);
        h.set_field(src, dst.index() % 2, Some(dst));
    }
    h
}

/// Reachability is monotone in the root set and closed under edges.
#[test]
fn reachability_laws() {
    for seed in 0..128u64 {
        let mut rng = Rng::new(seed.wrapping_add(2 << 32));
        let h = gen_heap(&mut rng);
        let a = Ref::new(rng.below(h.capacity() as u64) as u8);
        let b = Ref::new(rng.below(h.capacity() as u64) as u8);
        let from_a = h.reachable([a]);
        let from_ab = h.reachable([a, b]);
        assert!(from_a.is_subset(&from_ab), "seed {seed}: monotone in roots");
        // Closure: every allocated reachable object's children are reachable.
        for &r in &from_ab {
            if let Some(obj) = h.get(r) {
                for c in obj.children() {
                    assert!(from_ab.contains(&c), "seed {seed}: closed under edges");
                }
            }
        }
    }
}

/// Strong tricolor invariant implies the weak one (§2.1).
#[test]
fn strong_implies_weak() {
    for seed in 0..128u64 {
        let mut rng = Rng::new(seed.wrapping_add(3 << 32));
        let h = gen_heap(&mut rng);
        let greys: Vec<Ref> = (0..rng.below(4))
            .map(|_| Ref::new(rng.below(8) as u8))
            .filter(|r| h.contains(*r))
            .collect();
        let tri = Tricolor::new(&h, true, greys);
        if tri.strong_invariant() {
            assert!(tri.weak_invariant(), "seed {seed}");
        }
    }
}

/// Color partition: black and white are disjoint; flipping the sense
/// swaps them.
#[test]
fn color_partition() {
    for seed in 0..128u64 {
        let mut rng = Rng::new(seed.wrapping_add(4 << 32));
        let h = gen_heap(&mut rng);
        let t1 = Tricolor::new(&h, true, std::iter::empty());
        let t2 = Tricolor::new(&h, false, std::iter::empty());
        for r in h.refs() {
            assert!(t1.is_black(r) ^ t1.is_white(r), "seed {seed}");
            assert_eq!(t1.is_black(r), t2.is_white(r), "seed {seed}");
        }
    }
}

// ---------------------------------------------------------------------
// Runtime: random single-mutator programs with interleaved collections
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum GcOp {
    Alloc(u8),         // field count 0..=2
    Load(u8, u8),      // root index (mod #roots), field
    Store(u8, u8, u8), // src, field, dst (indices into roots)
    Discard(u8),
    Collect,
}

fn gen_gc_op(rng: &mut Rng) -> GcOp {
    match rng.below(5) {
        0 => GcOp::Alloc(rng.below(3) as u8),
        1 => GcOp::Load(rng.u8(), rng.below(2) as u8),
        2 => GcOp::Store(rng.u8(), rng.below(2) as u8, rng.u8()),
        3 => GcOp::Discard(rng.u8()),
        _ => GcOp::Collect,
    }
}

/// Whatever the op sequence, validation never trips: every rooted
/// object survives every collection, and full collections after
/// dropping all roots empty the heap.
#[test]
fn random_programs_never_observe_dangling() {
    for seed in 0..24u64 {
        let mut rng = Rng::new(seed.wrapping_add(5 << 32));
        let len = 1 + rng.below(59);
        let ops: Vec<GcOp> = (0..len).map(|_| gen_gc_op(&mut rng)).collect();
        let collector = Collector::new(GcConfig::builder().capacity(128).max_fields(2).build());
        let mut m = collector.register_mutator();
        let run_cycle = |m: &mut relaxing_safely::gc::Mutator| {
            let done = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|s| {
                s.spawn(|| {
                    collector.collect();
                    done.store(true, std::sync::atomic::Ordering::Release);
                });
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    m.safepoint();
                    std::thread::yield_now();
                }
            });
        };
        for op in ops {
            let roots: Vec<_> = m.roots().collect();
            let pick = |i: u8| roots.get(i as usize % roots.len().max(1)).copied();
            match op {
                GcOp::Alloc(f) => {
                    if m.alloc(f as usize).is_err() {
                        run_cycle(&mut m); // reclaim, then retry once
                        let _ = m.alloc(f as usize);
                    }
                }
                GcOp::Load(r, f) => {
                    if let Some(src) = pick(r) {
                        if (f as usize) < m.field_count(src) {
                            let _ = m.load(src, f as usize);
                        }
                    }
                }
                GcOp::Store(s, f, d) => {
                    if let (Some(src), Some(dst)) = (pick(s), pick(d)) {
                        if (f as usize) < m.field_count(src) {
                            m.store(src, f as usize, Some(dst));
                        }
                    }
                }
                GcOp::Discard(r) => {
                    if let Some(g) = pick(r) {
                        m.discard(g);
                    }
                }
                GcOp::Collect => run_cycle(&mut m),
            }
        }
        // Teardown: drop all roots; two cycles must empty the heap.
        let roots: Vec<_> = m.roots().collect();
        for g in roots {
            m.discard(g);
        }
        run_cycle(&mut m);
        run_cycle(&mut m);
        assert_eq!(collector.live_objects(), 0, "seed {seed}");
    }
}
