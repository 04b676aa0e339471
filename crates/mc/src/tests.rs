use super::*;

/// Follows `trace.actions` from the initial states through the full
/// (canonicalized) successor relation and asserts they lead to
/// `trace.state`: a counterexample the engine rebuilt by replaying ordinals
/// is a path of the system itself.
fn assert_trace_replays<TS>(ts: &TS, reduction: Reduction, trace: &Trace<TS>)
where
    TS: TransitionSystem,
    TS::Action: PartialEq,
{
    let canon = |s: &TS::State| ts.canonicalize(s, &reduction);
    let mut at: Vec<TS::State> = ts.initial_states().iter().map(canon).collect();
    for action in &trace.actions {
        at = at
            .iter()
            .flat_map(|s| ts.successors(s))
            .filter(|(a, _)| a == action)
            .map(|(_, s)| canon(&s))
            .collect();
    }
    assert!(
        at.contains(&trace.state),
        "the trace's actions do not lead to its state"
    );
}

/// A token ring: `n` processes pass a token; a counter tracks hops.
struct Ring {
    n: u8,
    max_hops: u8,
}

impl TransitionSystem for Ring {
    type State = (u8, u8); // (token holder, hops)
    type Action = u8;

    fn initial_states(&self) -> Vec<Self::State> {
        vec![(0, 0)]
    }

    fn successors(&self, s: &Self::State) -> Vec<(u8, Self::State)> {
        if s.1 >= self.max_hops {
            return Vec::new();
        }
        vec![(s.0, ((s.0 + 1) % self.n, s.1 + 1))]
    }
}

#[test]
fn verified_counts_states() {
    let ring = Ring { n: 3, max_hops: 6 };
    let out = Checker::new()
        .property(Property::new("hops-bounded", |s: &(u8, u8)| s.1 <= 6))
        .run(&ring);
    assert!(out.is_verified());
    assert_eq!(out.stats().states, 7);
    assert_eq!(out.stats().depth, 6);
}

#[test]
fn violation_yields_shortest_trace() {
    let ring = Ring { n: 3, max_hops: 10 };
    let out = Checker::new()
        .property(Property::new("never-holder-2", |s: &(u8, u8)| s.0 != 2))
        .run(&ring);
    assert!(out.is_violated());
    assert_eq!(out.violated_property(), Some("never-holder-2"));
    let trace = out.trace().unwrap();
    // Holder 2 is first reached after exactly two hops: 0 → 1 → 2.
    assert_eq!(trace.actions, vec![0, 1]);
    assert_eq!(trace.state, (2, 2));
    assert_trace_replays(&ring, Reduction::default(), trace);
}

#[test]
fn violation_in_initial_state_has_empty_trace() {
    let ring = Ring { n: 3, max_hops: 2 };
    let out = Checker::new()
        .property(Property::new("never-start", |s: &(u8, u8)| s.1 > 0))
        .run(&ring);
    let trace = out.trace().unwrap();
    assert!(trace.actions.is_empty());
    assert_eq!(trace.state, (0, 0));
    assert_trace_replays(&ring, Reduction::default(), trace);
}

#[test]
fn state_bound_interrupts() {
    let ring = Ring {
        n: 3,
        max_hops: 100,
    };
    let out = Checker::with_config(CheckerConfig {
        max_states: 5,
        ..CheckerConfig::default()
    })
    .run(&ring);
    match out {
        Outcome::BoundReached {
            bound: Bound::States(5),
            stats,
        } => assert!(stats.states <= 5),
        other => panic!("expected state bound, got {:?}", other.stats()),
    }
}

#[test]
fn depth_bound_interrupts() {
    let ring = Ring {
        n: 3,
        max_hops: 100,
    };
    let out = Checker::with_config(CheckerConfig {
        max_depth: 4,
        ..CheckerConfig::default()
    })
    .run(&ring);
    assert!(matches!(
        out,
        Outcome::BoundReached {
            bound: Bound::Depth(4),
            ..
        }
    ));
}

#[test]
fn deadlock_detection() {
    let ring = Ring { n: 3, max_hops: 2 };
    let out = Checker::with_config(CheckerConfig {
        forbid_deadlock: true,
        ..CheckerConfig::default()
    })
    .run(&ring);
    match out {
        Outcome::Deadlock { trace, .. } => {
            assert_eq!(trace.state.1, 2);
            assert_trace_replays(&ring, Reduction::default(), &trace);
        }
        _ => panic!("expected deadlock"),
    }
    // Without the flag the same system verifies.
    assert!(Checker::new().run(&ring).is_verified());
}

#[test]
fn propertyless_run_counts_states() {
    let ring = Ring { n: 4, max_hops: 8 };
    let stats = Checker::new().run(&ring).stats();
    assert_eq!(stats.states, 9);
    assert_eq!(stats.transitions, 8);
}

/// Branching system to exercise duplicate detection.
struct Diamond;

impl TransitionSystem for Diamond {
    type State = u8;
    type Action = &'static str;

    fn initial_states(&self) -> Vec<u8> {
        vec![0]
    }

    fn successors(&self, s: &u8) -> Vec<(&'static str, u8)> {
        match s {
            0 => vec![("l", 1), ("r", 2)],
            1 | 2 => vec![("join", 3)],
            _ => vec![],
        }
    }
}

#[test]
fn duplicates_are_merged() {
    let stats = Checker::new().run(&Diamond).stats();
    assert_eq!(stats.states, 4);
    assert_eq!(stats.transitions, 4);
}

#[test]
fn hash_compact_agrees_with_exact_mode() {
    let ring = Ring { n: 5, max_hops: 20 };
    let exact = Checker::new().run(&ring).stats();
    let compact = Checker::with_config(CheckerConfig {
        hash_compact: true,
        ..CheckerConfig::default()
    })
    .run(&ring)
    .stats();
    assert_eq!(exact.states, compact.states);
    assert_eq!(exact.transitions, compact.transitions);

    let out = Checker::with_config(CheckerConfig {
        hash_compact: true,
        ..CheckerConfig::default()
    })
    .property(Property::new("never-holder-2", |s: &(u8, u8)| s.0 != 2))
    .run(&ring);
    assert!(out.is_violated());
    assert_eq!(out.trace().unwrap().actions, vec![0, 1]);
    assert_trace_replays(&ring, Reduction::default(), out.trace().unwrap());
}

#[test]
fn random_walks_are_reproducible_and_find_violations() {
    let ring = Ring { n: 3, max_hops: 50 };
    let walk = |seed| {
        Checker::new()
            .strategy(Strategy::RandomWalk { steps: 100, seed })
            .property(Property::new("never-holder-2", |s: &(u8, u8)| s.0 != 2))
            .run(&ring)
    };
    let (w1, w2) = (walk(42), walk(42));
    match (&w1, &w2) {
        (Outcome::Violated { trace: t1, .. }, Outcome::Violated { trace: t2, .. }) => {
            assert_eq!(t1.actions.len(), t2.actions.len(), "same seed, same walk")
        }
        _ => panic!("the ring walk always reaches holder 2"),
    }
    // A clean property: the walk hits the hop cap and gets stuck.
    let good = Checker::new()
        .strategy(Strategy::RandomWalk {
            steps: 100,
            seed: 7,
        })
        .property(Property::new("hops-bounded", |s: &(u8, u8)| s.1 <= 50))
        .run(&ring);
    assert!(matches!(good, Outcome::Deadlock { .. }));
    // With a larger cap the walk completes its step budget.
    let long_ring = Ring {
        n: 3,
        max_hops: 200,
    };
    let done = Checker::new()
        .strategy(Strategy::RandomWalk {
            steps: 100,
            seed: 7,
        })
        .run(&long_ring);
    assert!(matches!(
        done,
        Outcome::BoundReached {
            bound: Bound::Steps(100),
            ..
        }
    ));
}

#[test]
fn multiple_initial_states_are_deduped() {
    struct TwoInits;
    impl TransitionSystem for TwoInits {
        type State = u8;
        type Action = ();
        fn initial_states(&self) -> Vec<u8> {
            vec![1, 1, 2]
        }
        fn successors(&self, _: &u8) -> Vec<((), u8)> {
            vec![]
        }
    }
    assert_eq!(Checker::new().run(&TwoInits).stats().states, 2);
}

// --- Parallel BFS: thread-count invariance ------------------------------

/// A wide branching system with heavy duplicate merging: states are
/// `(step, value)` where several paths reach the same value, so parallel
/// workers race on claims every level.
struct Mesh {
    depth: u16,
    width: u16,
}

impl TransitionSystem for Mesh {
    type State = (u16, u16);
    type Action = u16;

    fn initial_states(&self) -> Vec<Self::State> {
        vec![(0, 0)]
    }

    fn successors(&self, &(step, value): &Self::State) -> Vec<(u16, Self::State)> {
        if step >= self.depth {
            return Vec::new();
        }
        (0..4)
            .map(|delta| (delta, (step + 1, (value * 3 + delta) % self.width)))
            .collect()
    }
}

fn bfs_checker(threads: usize, compact: bool) -> Checker<(u16, u16)> {
    Checker::with_config(CheckerConfig {
        hash_compact: compact,
        ..CheckerConfig::default()
    })
    .strategy(Strategy::Bfs { threads })
}

#[test]
fn thread_counts_agree_on_verified_runs() {
    let mesh = Mesh {
        depth: 40,
        width: 500,
    };
    let baseline = bfs_checker(1, false).run(&mesh).stats();
    for threads in [2, 4] {
        for compact in [false, true] {
            let stats = bfs_checker(threads, compact).run(&mesh).stats();
            assert_eq!(stats, baseline, "threads={threads} compact={compact}");
        }
    }
}

#[test]
fn thread_counts_agree_on_violations_and_traces() {
    let mesh = Mesh {
        depth: 40,
        width: 997,
    };
    let violated = |threads| {
        bfs_checker(threads, false)
            .property(Property::new("never-123", |s: &(u16, u16)| s.1 != 123))
            .run(&mesh)
    };
    let base = violated(1);
    assert!(base.is_violated());
    let base_trace = base.trace().unwrap();
    assert_trace_replays(&mesh, Reduction::default(), base_trace);
    for threads in [2, 4, 8] {
        let out = violated(threads);
        assert_eq!(out.stats(), base.stats(), "threads={threads}");
        assert_eq!(out.violated_property(), base.violated_property());
        let trace = out.trace().unwrap();
        assert_eq!(trace.actions, base_trace.actions, "threads={threads}");
        assert_eq!(trace.state, base_trace.state);
    }
}

#[test]
fn thread_counts_agree_on_deadlock_and_bounds() {
    let mesh = Mesh {
        depth: 12,
        width: 300,
    };
    let base_deadlock = Checker::with_config(CheckerConfig {
        forbid_deadlock: true,
        ..CheckerConfig::default()
    })
    .run(&mesh);
    let base_bound = Checker::with_config(CheckerConfig {
        max_states: 700,
        ..CheckerConfig::default()
    })
    .run(&mesh);
    for threads in [2, 4] {
        let deadlock = Checker::with_config(CheckerConfig {
            forbid_deadlock: true,
            ..CheckerConfig::default()
        })
        .strategy(Strategy::Bfs { threads })
        .run(&mesh);
        match (&base_deadlock, &deadlock) {
            (
                Outcome::Deadlock {
                    trace: t1,
                    stats: s1,
                },
                Outcome::Deadlock {
                    trace: t2,
                    stats: s2,
                },
            ) => {
                assert_eq!(t1.actions, t2.actions, "threads={threads}");
                assert_eq!(s1, s2);
                assert_trace_replays(&mesh, Reduction::default(), t2);
            }
            _ => panic!("expected deadlock at every thread count"),
        }
        let bound = Checker::with_config(CheckerConfig {
            max_states: 700,
            ..CheckerConfig::default()
        })
        .strategy(Strategy::Bfs { threads })
        .run(&mesh);
        match (&base_bound, &bound) {
            (
                Outcome::BoundReached {
                    bound: b1,
                    stats: s1,
                },
                Outcome::BoundReached {
                    bound: b2,
                    stats: s2,
                },
            ) => {
                assert_eq!(b1, b2, "threads={threads}");
                assert_eq!(s1, s2);
            }
            _ => panic!("expected state bound at every thread count"),
        }
    }
}

#[test]
fn zero_threads_means_available_parallelism() {
    let mesh = Mesh {
        depth: 20,
        width: 100,
    };
    let auto = bfs_checker(0, false).run(&mesh).stats();
    let seq = bfs_checker(1, false).run(&mesh).stats();
    assert_eq!(auto, seq);
}

#[test]
fn report_renders_verdict_stats_and_trace() {
    let ring = Ring { n: 3, max_hops: 10 };
    let out = Checker::new()
        .property(Property::new("never-holder-2", |s: &(u8, u8)| s.0 != 2))
        .run(&ring);
    let report = out.report();
    assert!(report.starts_with("verdict: VIOLATED never-holder-2\n"));
    assert!(report.contains("states: "));
    assert!(report.contains("counterexample (2 steps):"));
    let verified = Checker::new().run(&ring).report();
    assert!(verified.starts_with("verdict: VERIFIED\n"));
    assert!(!verified.contains("counterexample"));
}

// --- Static precheck ----------------------------------------------------

#[test]
fn failing_precheck_short_circuits_exploration() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let explored = Arc::new(AtomicBool::new(false));
    struct Spy(Arc<std::sync::atomic::AtomicBool>);
    impl TransitionSystem for Spy {
        type State = u8;
        type Action = ();
        fn initial_states(&self) -> Vec<u8> {
            self.0.store(true, std::sync::atomic::Ordering::SeqCst);
            vec![0]
        }
        fn successors(&self, _: &u8) -> Vec<((), u8)> {
            vec![]
        }
    }

    let diag = PrecheckDiagnostic {
        code: "A005".into(),
        label: Some("sb-load".into()),
        message: "TSO store-buffer hazard; insert an mfence".into(),
    };
    let diag_for_closure = diag.clone();
    let out = Checker::with_config(CheckerConfig {
        static_precheck: Some(Arc::new(move || vec![diag_for_closure.clone()])),
        ..CheckerConfig::default()
    })
    .run(&Spy(explored.clone()));

    assert!(
        !explored.load(Ordering::SeqCst),
        "must not touch the system"
    );
    assert!(!out.is_verified());
    assert_eq!(out.precheck_diagnostics(), Some(&[diag][..]));
    assert_eq!(out.stats(), Stats::default());
    assert_eq!(out.verdict(), "PRECHECK (1 diagnostics)");
    let report = out.report_with(|_| unreachable!("no trace to render"));
    assert!(report.contains("A005 [sb-load]: TSO store-buffer hazard"));
}

#[test]
fn clean_precheck_proceeds_to_exploration() {
    let ring = Ring { n: 3, max_hops: 6 };
    let out = Checker::with_config(CheckerConfig {
        static_precheck: Some(std::sync::Arc::new(Vec::new)),
        ..CheckerConfig::default()
    })
    .run(&ring);
    assert!(out.is_verified());
    assert_eq!(out.stats().states, 7);
}

// --- Reductions and disk spill ------------------------------------------

/// `Mesh` with a state codec, so frontier levels can spill to disk.
struct CodecMesh(Mesh);

impl TransitionSystem for CodecMesh {
    type State = (u16, u16);
    type Action = u16;

    fn initial_states(&self) -> Vec<Self::State> {
        self.0.initial_states()
    }

    fn successors(&self, s: &Self::State) -> Vec<(u16, Self::State)> {
        self.0.successors(s)
    }

    fn encode_state(&self, s: &Self::State, bytes: &mut Vec<u8>) -> bool {
        bytes.extend_from_slice(&s.0.to_le_bytes());
        bytes.extend_from_slice(&s.1.to_le_bytes());
        true
    }

    fn decode_state(&self, bytes: &[u8]) -> Option<Self::State> {
        if bytes.len() != 4 {
            return None;
        }
        Some((
            u16::from_le_bytes([bytes[0], bytes[1]]),
            u16::from_le_bytes([bytes[2], bytes[3]]),
        ))
    }
}

#[test]
fn disk_spill_agrees_with_in_memory_frontiers() {
    let mesh = || {
        CodecMesh(Mesh {
            depth: 40,
            width: 500,
        })
    };
    let spilled_cfg = CheckerConfig {
        spill_threshold: Some(8),
        ..CheckerConfig::default()
    };
    let baseline = Checker::new().run(&mesh()).stats();
    for threads in [1, 4] {
        let stats = Checker::with_config(spilled_cfg.clone())
            .strategy(Strategy::Bfs { threads })
            .run(&mesh())
            .stats();
        assert_eq!(stats, baseline, "spilled threads={threads}");
    }
    // Violation traces survive the disk round-trip bit-for-bit.
    let violated = |cfg: CheckerConfig, threads| {
        Checker::with_config(cfg)
            .strategy(Strategy::Bfs { threads })
            .property(Property::new("never-123", |s: &(u16, u16)| s.1 != 123))
            .run(&mesh())
    };
    let base = violated(CheckerConfig::default(), 1);
    for threads in [1, 4] {
        let out = violated(spilled_cfg.clone(), threads);
        assert_eq!(out.stats(), base.stats());
        assert_eq!(out.trace().unwrap().actions, base.trace().unwrap().actions);
        assert_eq!(out.trace().unwrap().state, base.trace().unwrap().state);
        assert_trace_replays(&mesh(), Reduction::default(), out.trace().unwrap());
    }
}

#[test]
fn disk_spill_reports_deadlocks_from_spilled_frontiers() {
    let mesh = CodecMesh(Mesh {
        depth: 12,
        width: 300,
    });
    let run = |spill| {
        Checker::with_config(CheckerConfig {
            forbid_deadlock: true,
            spill_threshold: spill,
            ..CheckerConfig::default()
        })
        .run(&mesh)
    };
    match (run(None), run(Some(4))) {
        (
            Outcome::Deadlock {
                trace: t1,
                stats: s1,
            },
            Outcome::Deadlock {
                trace: t2,
                stats: s2,
            },
        ) => {
            assert_eq!(t1.actions, t2.actions);
            assert_eq!(t1.state, t2.state);
            assert_eq!(s1, s2);
            assert_trace_replays(&mesh, Reduction::default(), &t2);
        }
        _ => panic!("expected deadlock with and without spill"),
    }
}

#[test]
fn spill_threshold_without_codec_is_a_noop() {
    let mesh = Mesh {
        depth: 20,
        width: 200,
    };
    let spilled = Checker::with_config(CheckerConfig {
        spill_threshold: Some(1),
        ..CheckerConfig::default()
    })
    .run(&mesh)
    .stats();
    assert_eq!(spilled, Checker::new().run(&mesh).stats());
}

/// Two symmetric processes counting to `cap`: states `(a, b)` and
/// `(b, a)` are behaviourally equivalent, and all steps are independent.
/// Used to exercise the symmetry-canonicalization and ample-set hooks.
struct TwinCounters {
    cap: u8,
}

impl TransitionSystem for TwinCounters {
    type State = (u8, u8);
    type Action = &'static str;

    fn initial_states(&self) -> Vec<Self::State> {
        vec![(0, 0)]
    }

    fn successors(&self, s: &Self::State) -> Vec<(&'static str, Self::State)> {
        let mut out = Vec::new();
        self.successors_into(s, &mut out);
        out
    }

    fn successors_into(&self, s: &Self::State, out: &mut Vec<(&'static str, Self::State)>) {
        if s.0 < self.cap {
            out.push(("inc0", (s.0 + 1, s.1)));
        }
        if s.1 < self.cap {
            out.push(("inc1", (s.0, s.1 + 1)));
        }
    }

    fn ample_successors_into(
        &self,
        s: &Self::State,
        reduction: &Reduction,
        out: &mut Vec<(&'static str, Self::State)>,
    ) -> bool {
        debug_assert!(reduction.por);
        // Both increments are independent and invisible to the sum-based
        // properties below, so expanding just the first enabled one is a
        // sound ample set.
        if s.0 < self.cap {
            out.push(("inc0", (s.0 + 1, s.1)));
            return true;
        }
        self.successors_into(s, out);
        false
    }

    fn canonicalize(&self, s: &Self::State, reduction: &Reduction) -> Self::State {
        if reduction.symmetry && s.0 > s.1 {
            (s.1, s.0)
        } else {
            *s
        }
    }
}

#[test]
fn reduction_flags_compose_and_label() {
    assert!(!Reduction::default().any());
    assert!(Reduction::all().any());
    assert_eq!(Reduction::default().label(), "none");
    assert_eq!(Reduction::all().label(), "por+symmetry+sb_canon");
    let sym = Reduction {
        symmetry: true,
        ..Reduction::default()
    };
    assert_eq!(sym.label(), "symmetry");
    // Config equality and the builder include the new fields.
    let cfg = CheckerConfig::default().reduction(sym);
    assert_ne!(cfg, CheckerConfig::default());
    assert_eq!(cfg.reduction, sym);
}

#[test]
fn symmetry_reduction_shrinks_verified_state_counts() {
    let ts = TwinCounters { cap: 9 };
    let full = Checker::new().run(&ts).stats();
    let reduced = Checker::with_config(CheckerConfig::default().reduction(Reduction {
        symmetry: true,
        ..Reduction::default()
    }))
    .run(&ts)
    .stats();
    // 10×10 grid vs its upper triangle (including the diagonal).
    assert_eq!(full.states, 100);
    assert_eq!(reduced.states, 55);
}

#[test]
fn por_shrinks_verified_state_counts() {
    let ts = TwinCounters { cap: 9 };
    let full = Checker::new().run(&ts).stats();
    let reduced = Checker::with_config(CheckerConfig::default().reduction(Reduction {
        por: true,
        ..Reduction::default()
    }))
    .run(&ts)
    .stats();
    assert!(
        reduced.states < full.states,
        "ample sets must prune: {} vs {}",
        reduced.states,
        full.states
    );
}

#[test]
fn reduced_violations_replay_to_byte_identical_counterexamples() {
    let ts = TwinCounters { cap: 9 };
    let check = |reduction| {
        Checker::with_config(CheckerConfig::default().reduction(reduction))
            .property(Property::new("sum-below-7", |s: &(u8, u8)| {
                usize::from(s.0) + usize::from(s.1) < 7
            }))
            .run(&ts)
    };
    let base = check(Reduction::default());
    assert!(base.is_violated());
    for reduction in [
        Reduction {
            por: true,
            ..Reduction::default()
        },
        Reduction {
            symmetry: true,
            ..Reduction::default()
        },
        Reduction {
            por: true,
            symmetry: true,
            ..Reduction::default()
        },
    ] {
        let out = check(reduction);
        assert!(out.is_violated(), "{}", reduction.label());
        assert_eq!(out.stats(), base.stats(), "{}", reduction.label());
        assert_eq!(
            out.trace().unwrap().actions,
            base.trace().unwrap().actions,
            "{}",
            reduction.label()
        );
        assert_eq!(out.trace().unwrap().state, base.trace().unwrap().state);
        assert_trace_replays(&ts, Reduction::default(), out.trace().unwrap());
    }
}

// --- Counterexamples by replay: the corners -----------------------------

/// Runs the engine itself (not `Checker::run`, which swaps a reduced
/// counterexample for the unreduced one) at 1/2/4 threads, exact and
/// hash-compact, and returns the one trace they all agree on.
fn replayed_counterexample<TS>(
    ts: &TS,
    reduction: Reduction,
    property: Property<TS::State>,
) -> Trace<TS>
where
    TS: TransitionSystem,
    TS::State: std::fmt::Debug,
    TS::Action: PartialEq + std::fmt::Debug,
{
    let properties = [property];
    let mut agreed: Option<(Trace<TS>, Stats)> = None;
    for threads in [1, 2, 4] {
        for hash_compact in [false, true] {
            let config = CheckerConfig {
                hash_compact,
                ..CheckerConfig::default().reduction(reduction)
            };
            let what = format!("threads={threads} compact={hash_compact}");
            let Outcome::Violated { trace, stats, .. } =
                bfs::run(&config, &properties, ts, threads)
            else {
                panic!("expected a violation ({what})");
            };
            assert_trace_replays(ts, reduction, &trace);
            match &agreed {
                None => agreed = Some((trace, stats)),
                Some((base, base_stats)) => {
                    assert_eq!(trace.actions, base.actions, "{what}");
                    assert_eq!(trace.state, base.state, "{what}");
                    assert_eq!(stats, *base_stats, "{what}");
                }
            }
        }
    }
    agreed.expect("six runs").0
}

#[test]
fn replay_starts_from_the_initial_state_the_chain_ends_in() {
    /// Two chains that never meet; only the second reaches `(1, 3)`.
    struct TwoRoots;
    impl TransitionSystem for TwoRoots {
        type State = (u8, u8); // (root, steps)
        type Action = u8;
        fn initial_states(&self) -> Vec<(u8, u8)> {
            vec![(0, 0), (0, 0), (1, 0)]
        }
        fn successors(&self, &(root, steps): &(u8, u8)) -> Vec<(u8, (u8, u8))> {
            if steps < 5 {
                vec![(root, (root, steps + 1))]
            } else {
                vec![]
            }
        }
    }
    let trace = replayed_counterexample(
        &TwoRoots,
        Reduction::default(),
        Property::new("second-root-stays-short", |s: &(u8, u8)| *s != (1, 3)),
    );
    assert_eq!(trace.actions, vec![1, 1, 1]);
    assert_eq!(trace.state, (1, 3));
}

#[test]
fn replay_tells_an_ample_expansion_from_its_c3_fallback() {
    /// `0` expands to its ample set `[b]` (a different list from its full
    /// successors `[a, b]`); `2`'s ample set `[back]` leads only to the
    /// already-visited `0`, so the engine expands it in full — a decision
    /// replay cannot re-derive, because it has no seen-set.
    struct Proviso;
    impl TransitionSystem for Proviso {
        type State = u8;
        type Action = &'static str;
        fn initial_states(&self) -> Vec<u8> {
            vec![0]
        }
        fn successors(&self, s: &u8) -> Vec<(&'static str, u8)> {
            match s {
                0 => vec![("a", 1), ("b", 2)],
                2 => vec![("bad", 9), ("back", 0)],
                _ => vec![],
            }
        }
        fn ample_successors_into(
            &self,
            s: &u8,
            _: &Reduction,
            out: &mut Vec<(&'static str, u8)>,
        ) -> bool {
            match s {
                0 => out.push(("b", 2)),
                2 => out.push(("back", 0)),
                _ => return false,
            }
            true
        }
    }
    let por = Reduction {
        por: true,
        ..Reduction::default()
    };
    let trace = replayed_counterexample(&Proviso, por, Property::new("never-9", |s| *s != 9));
    assert_eq!(trace.actions, vec!["b", "bad"]);
    assert_eq!(trace.state, 9);

    // The counterexample did pass through both kinds of expansion.
    let registry = std::sync::Arc::new(gc_trace::Registry::new());
    let config = CheckerConfig::default()
        .reduction(por)
        .metrics(std::sync::Arc::clone(&registry));
    let out = bfs::run(
        &config,
        &[Property::new("never-9", |s| *s != 9)],
        &Proviso,
        1,
    );
    assert_eq!(
        out.stats().states,
        3,
        "`1` is pruned by the ample set at `0`"
    );
    let hits = |technique| {
        let name = gc_trace::labeled("mc_reduction_hits_total", &[("technique", technique)]);
        registry.value_of(&name)
    };
    assert_eq!(hits("por_ample"), Some(2));
    assert_eq!(hits("por_fallback"), Some(1));
}

#[test]
fn replay_canonicalizes_the_root_and_every_step() {
    /// The larger component is kept first, and only it can be doubled: a
    /// replay that skipped a canonicalization would double the wrong one.
    struct Sorted;
    impl TransitionSystem for Sorted {
        type State = (u8, u8);
        type Action = &'static str;
        fn initial_states(&self) -> Vec<(u8, u8)> {
            vec![(0, 1)]
        }
        fn successors(&self, &(a, b): &(u8, u8)) -> Vec<(&'static str, (u8, u8))> {
            if a >= 40 {
                return vec![];
            }
            vec![("double", (2 * a, b)), ("bump", (a, b + 3))]
        }
        fn canonicalize(&self, &(a, b): &(u8, u8), reduction: &Reduction) -> (u8, u8) {
            if reduction.symmetry {
                (a.max(b), a.min(b))
            } else {
                (a, b)
            }
        }
    }
    let symmetry = Reduction {
        symmetry: true,
        ..Reduction::default()
    };
    let trace = replayed_counterexample(
        &Sorted,
        symmetry,
        Property::new("never-6-2", |s: &(u8, u8)| *s != (6, 2)),
    );
    // (0,1) is (1,0); double (2,0); bump (2,3) is (3,2); double (6,2).
    assert_eq!(trace.actions, vec!["double", "bump", "double"]);
    assert_eq!(trace.state, (6, 2));
}

#[test]
fn reductions_on_a_system_without_hooks_are_noops() {
    let ring = Ring { n: 3, max_hops: 6 };
    let out = Checker::with_config(CheckerConfig::default().reduction(Reduction::all())).run(&ring);
    assert!(out.is_verified());
    assert_eq!(out.stats().states, 7);
}

#[test]
fn config_equality_is_precheck_identity() {
    let pre: Precheck = std::sync::Arc::new(Vec::new);
    let a = CheckerConfig {
        static_precheck: Some(pre.clone()),
        ..CheckerConfig::default()
    };
    assert_eq!(a, a.clone(), "shared closure: equal");
    let b = CheckerConfig {
        static_precheck: Some(std::sync::Arc::new(Vec::new)),
        ..CheckerConfig::default()
    };
    assert_ne!(a, b, "distinct closures: unequal");
    assert_eq!(CheckerConfig::default(), CheckerConfig::default());
    assert_ne!(a, CheckerConfig::default());
}

#[test]
fn telemetry_registry_observes_without_perturbing() {
    use std::sync::Arc;

    let ts = TwinCounters { cap: 9 };
    let reduction = Reduction {
        por: true,
        symmetry: true,
        ..Reduction::default()
    };
    let silent = Checker::with_config(CheckerConfig::default().reduction(reduction))
        .run(&ts)
        .stats();

    let registry = Arc::new(gc_trace::Registry::new());
    let observed = Checker::with_config(
        CheckerConfig::default()
            .reduction(reduction)
            .metrics(Arc::clone(&registry)),
    )
    .run(&ts)
    .stats();
    assert_eq!(observed, silent, "telemetry must not perturb the search");

    assert_eq!(
        registry.value_of("mc_states_total"),
        Some(observed.states as i64)
    );
    assert!(registry.value_of("mc_states_per_sec").unwrap() > 0);
    let technique = |t: &str| {
        registry
            .value_of(&gc_trace::labeled(
                "mc_reduction_hits_total",
                &[("technique", t)],
            ))
            .unwrap_or(0)
    };
    assert!(technique("por_ample") > 0, "ample sets were applied");
    assert!(technique("symmetry_merge") > 0, "orbits were merged");
    assert_eq!(technique("sb_canon_coalesce"), 0, "sb_canon was off");
    // The labelled series render as one family with a single TYPE line.
    let text = registry.render_text();
    assert_eq!(text.matches("# TYPE mc_reduction_hits_total").count(), 1);
    assert!(text.contains("mc_reduction_hits_total{technique=\"por_ample\"}"));

    // Spill telemetry: a spilled run reports bytes in both directions.
    let mesh = CodecMesh(Mesh {
        depth: 40,
        width: 500,
    });
    let spill_registry = Arc::new(gc_trace::Registry::new());
    let spilled = Checker::with_config(CheckerConfig {
        spill_threshold: Some(8),
        ..CheckerConfig::default().metrics(Arc::clone(&spill_registry))
    })
    .run(&mesh)
    .stats();
    assert_eq!(spilled, Checker::new().run(&mesh).stats());
    assert!(
        spill_registry
            .value_of("mc_spill_bytes_written_total")
            .unwrap()
            > 0
    );
    assert!(
        spill_registry
            .value_of("mc_spill_bytes_read_total")
            .unwrap()
            > 0
    );

    // Retained memory, as of the last completed level of a depth-bounded
    // run (a run to the end leaves an empty next level behind).
    fn retained<TS: TransitionSystem>(ts: &TS, spill_threshold: Option<usize>) -> [i64; 3] {
        let registry = Arc::new(gc_trace::Registry::new());
        let config = CheckerConfig {
            max_depth: 6,
            spill_threshold,
            ..CheckerConfig::default().metrics(Arc::clone(&registry))
        };
        let states = Checker::with_config(config).run(ts).stats().states;
        assert!(states < 4096, "one block of links");
        [
            "mc_parent_link_bytes",
            "mc_seen_set_bytes",
            "mc_frontier_bytes",
        ]
        .map(|name| registry.value_of(name).unwrap())
    }
    let block_bytes = (bfs::ARENA_BLOCK * size_of::<(u16, u16)>()) as i64;
    let [links, seen_set, frontier] = retained(&mesh.0, None);
    assert_eq!(links, 4096 * 8);
    assert!(seen_set > 0);
    assert!(
        frontier > 0 && frontier % block_bytes == 0,
        "whole blocks of `(u16, u16)` states"
    );
    // With a codec, an in-memory level is one buffer of records, and a
    // spilled one leaves nothing in memory.
    let [encoded_links, encoded_seen_set, records] = retained(&mesh, None);
    assert_eq!([encoded_links, encoded_seen_set], [links, seen_set]);
    assert!(records > 0);
    let [spilled_links, spilled_seen_set, spilled] = retained(&mesh, Some(8));
    assert_eq!([spilled_links, spilled_seen_set], [links, seen_set]);
    assert_eq!(spilled, 0);
}

// --- Claims and arenas --------------------------------------------------

/// An initial state with `2 * BLOCK` successors `(1, i)`, so that two
/// workers take them in different dispenser blocks; `(1, 5)` and `(1, 40)`
/// share the violating successor `(2, 0)` — the last of `(1, 5)`'s and the
/// first of `(1, 40)`'s — and every `(1, i)` but `(1, 5)` leads to
/// `(2, 128 + i)`.
struct SharedViolation;

impl TransitionSystem for SharedViolation {
    type State = (u8, u8);
    type Action = u8;

    fn initial_states(&self) -> Vec<(u8, u8)> {
        vec![(0, 0)]
    }

    fn successors(&self, &(level, i): &(u8, u8)) -> Vec<(u8, (u8, u8))> {
        match (level, i) {
            (0, _) => (0..64).map(|i| (i, (1, i))).collect(),
            (1, 5) => (1..40)
                .map(|j| (j, (2, 64 + j)))
                .chain([(0, (2, 0))])
                .collect(),
            (1, 40) => vec![(0, (2, 0)), (1, (2, 128 + 40))],
            (1, i) => vec![(i, (2, 128 + i))],
            _ => Vec::new(),
        }
    }
}

#[test]
fn racing_claims_on_a_violating_successor_report_the_earliest_discovery() {
    let property = || Property::new("never-2-0", |s: &(u8, u8)| *s != (2, 0));
    for hash_compact in [false, true] {
        let config = CheckerConfig {
            hash_compact,
            ..CheckerConfig::default()
        };
        for threads in [1, 2, 4] {
            let out = bfs::run(&config, &[property()], &SharedViolation, threads);
            let what = format!("threads={threads} compact={hash_compact}");
            assert_eq!(out.violated_property(), Some("never-2-0"), "{what}");
            let trace = out.trace().expect("a violation has a trace");
            assert_eq!(trace.actions, vec![5, 0], "{what}");
            assert_eq!(trace.state, (2, 0));
            // The root, its 64 successors, then the successors of `(1, 0)`
            // to `(1, 4)` and `(1, 5)`'s 40 in drain order, the last of
            // which is the violation.
            assert_eq!(out.stats().states, 1 + 64 + 5 + 40, "{what}");
            assert_trace_replays(&SharedViolation, Reduction::default(), trace);
        }
    }
}

/// Fifty levels of very different sizes, each state of level `l` leading
/// to ten of level `l + 1`, which they cover.
struct Levels;

impl Levels {
    const DEPTH: u16 = 50;

    fn width(level: u16) -> u16 {
        100 + (level * 37 % 17) * 100
    }
}

impl TransitionSystem for Levels {
    type State = (u16, u16);
    type Action = u16;

    fn initial_states(&self) -> Vec<(u16, u16)> {
        (0..Levels::width(0)).map(|i| (0, i)).collect()
    }

    fn successors(&self, &(level, i): &(u16, u16)) -> Vec<(u16, (u16, u16))> {
        if level + 1 == Levels::DEPTH {
            return Vec::new();
        }
        let width = Levels::width(level + 1);
        (0..10)
            .map(|k| (k, (level + 1, (i * 10 + k) % width)))
            .collect()
    }
}

#[test]
fn arenas_never_hold_more_blocks_than_two_adjacent_levels_need() {
    use std::sync::Arc;

    let blocks = |n: u16| usize::from(n).div_ceil(bfs::ARENA_BLOCK);
    let adjacent = (0..Levels::DEPTH - 1)
        .map(|l| blocks(Levels::width(l)) + blocks(Levels::width(l + 1)))
        .max()
        .expect("fifty levels");
    let all: usize = (0..Levels::DEPTH).map(|l| blocks(Levels::width(l))).sum();
    for threads in [1, 2] {
        let registry = Arc::new(gc_trace::Registry::new());
        let config = CheckerConfig::default().metrics(Arc::clone(&registry));
        let out = bfs::run(&config, &[], &Levels, threads);
        let states: usize = (0..Levels::DEPTH)
            .map(|l| usize::from(Levels::width(l)))
            .sum();
        assert_eq!(out.stats().states, states);
        let bytes = registry.value_of("mc_frontier_bytes").expect("published") as usize;
        let made = bytes / (bfs::ARENA_BLOCK * size_of::<(u16, u16)>());
        // A worker's last block of a level may be part-filled.
        assert!(
            made <= adjacent + 2 * (threads - 1),
            "{made} blocks at {threads} threads; two adjacent levels need {adjacent}, \
             all fifty {all}"
        );
    }
}
