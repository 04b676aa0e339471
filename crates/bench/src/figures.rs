//! The paper's ten figures, each as the experiment that regenerates its
//! evidence.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use cimp::step::{at_labels, enabled_steps, PendingStep};
use cimp::{Event, Program, System};
use gc_model::invariants::combined_property;
use gc_model::view::View;
use gc_model::{
    GcModel, HsPhase, HsType, InitialHeap, ModelConfig, ModelEvent, MutatorOps, Phase, ReqKind,
};
use gc_trace::Flags;
use gc_types::{AbstractHeap, Tricolor};
use mc::{Checker, Property, TransitionSystem};
use otf_gc::{Collector, GcConfig};
use tso_model::litmus::{
    cas_race, iriw, lb, mp, n6, r_shape, sb, sb_fenced, two_plus_two_w, Outcome,
};
use tso_model::MemoryModel;

use crate::{
    check_config_with, check_table, conclude, max_states, print_table, print_trace, violation, Run,
    Suite, Verdict,
};

/// **Figure 1 — grey protection.**
///
/// The paper's Figure 1 shows a white object `W` referenced by a black
/// object `B` and kept alive ("grey-protected") by a chain of white objects
/// hanging off a grey object `G`; deleting any chain edge without the
/// deletion barrier hides `W` from the collector.
///
/// Part 1 reproduces the figure statically on the tricolor abstraction.
/// Part 2 reproduces it dynamically: with the deletion barrier the chain
/// configuration verifies; without it the model checker produces a
/// shortest trace in which a reachable object is freed (or an invariant en
/// route to that failure is violated).
pub(crate) fn fig1(f: &mut Flags) -> Run {
    let max = max_states(f, 2_000_000)?;

    println!("== Figure 1, statically ==");
    let mut heap = AbstractHeap::new(5, 2);
    let b = heap.alloc(true).unwrap(); // black
    let g = heap.alloc(true).unwrap(); // grey (marked + on a work-list)
    let c1 = heap.alloc(false).unwrap(); // white chain
    let c2 = heap.alloc(false).unwrap();
    let w = heap.alloc(false).unwrap(); // the contested white object
    heap.set_field(b, 0, Some(w));
    heap.set_field(g, 0, Some(c1));
    heap.set_field(c1, 0, Some(c2));
    heap.set_field(c2, 0, Some(w));

    let tri = Tricolor::new(&heap, true, [g]);
    println!("chain intact:   weak invariant = {}", tri.weak_invariant());
    println!(
        "                grey-protected = {:?}",
        tri.grey_protected()
    );

    let mut cut = heap.clone();
    cut.set_field(c1, 0, None); // delete an X-marked edge, no barrier
    let tri = Tricolor::new(&cut, true, [g]);
    println!("edge deleted:   weak invariant = {}", tri.weak_invariant());

    let mut fixed = heap.clone();
    fixed.set_flag(c2, true); // the deletion barrier greys the target...
    fixed.set_field(c1, 0, None); // ...before the edge goes
    let tri = Tricolor::new(&fixed, true, [g, c2]);
    println!("with barrier:   weak invariant = {}", tri.weak_invariant());

    println!("\n== Figure 1, dynamically (model checking) ==");
    // The chain r0 -> r1 with only the head rooted: r1 is exactly the
    // paper's W, protected only through the heap.
    let mut with_barrier = ModelConfig::small(1, 3);
    with_barrier.initial = InitialHeap::chain(1, 2, 1);
    with_barrier.ops.alloc = false; // keep the instance small

    let mut without = with_barrier.clone();
    without.deletion_barrier = false;

    let reports = check_table(
        max,
        Suite::Full,
        &[
            ("chain, deletion barrier ON", &with_barrier),
            ("chain, deletion barrier OFF", &without),
        ],
    );
    print_trace(&reports[1]);
    Ok(conclude(
        &reports,
        reports[1].violated.is_some(),
        "the unbarriered chain must produce the Figure 1 failure",
    ))
}

/// **Figure 2 — the collector, with its line-comment invariants.**
///
/// Figure 2's pseudo-code annotates the cycle with invariants ("Grey = ∅,
/// heap = Black", "Black = ∅", "barriers installed, allocate Black", the
/// snapshot invariant, the sweep justification). Those assertions are the
/// phase-indexed `sys_phase_inv` / `mutator_phase_inv` /
/// `reachable_snapshot_inv` of §3.2, which the full suite checks in every
/// reachable state. This driver runs that check and additionally reports
/// how the reachable states distribute over the collector's handshake
/// phases — the executable picture of the cycle.
pub(crate) fn fig2(f: &mut Flags) -> Run {
    let max = max_states(f, 5_000_000)?;
    let cfg = ModelConfig::small(1, 2);

    // A counting "property" that never fails: tallies states by
    // (handshake phase, committed phase). Counting happens per visited
    // state, so this driver keeps the default sequential strategy for
    // exact tallies.
    let histogram: Arc<Mutex<BTreeMap<(String, Phase), usize>>> = Arc::default();
    let h2 = Arc::clone(&histogram);
    let cfg2 = cfg.clone();
    let counter = Property::labeled("phase-histogram", move |st: &gc_model::ModelState| {
        let v = View::new(&cfg2, st);
        let key = (
            v.sys().ghost_gc_phase.to_string(),
            v.sys().committed_phase(),
        );
        *h2.lock().expect("histogram lock").entry(key).or_insert(0) += 1;
        None
    });

    let reports = [check_config_with(
        "1 mutator, 2 slots, all ops",
        &cfg,
        max,
        vec![counter, combined_property(&cfg)],
    )];
    print_table(&reports);

    println!("\nstates by (handshake phase, committed collector phase):");
    println!("{:<22} {:>10}  states", "handshake phase", "phase");
    for ((hp, phase), n) in histogram.lock().expect("histogram lock").iter() {
        println!("{hp:<22} {phase:>10}  {n}");
    }
    if let Some(refuted) = violation(&reports) {
        return Ok(refuted);
    }
    println!("\nevery Figure 2 line-comment invariant held in every state.");
    Ok(Verdict::Holds)
}

/// **Figure 3 — control-state transitions and handshake phases.**
///
/// Figure 3 shows (a) the collector's phase transitions over two cycles,
/// (b) the handshake phases mutators move through, and (c) that mutators
/// may observe new control states *before* the corresponding handshake
/// (store-buffer effects), yet all agree after the round.
///
/// This driver explores the model and reports the observed relation
/// between the collector's handshake phase and each mutator's — verifying
/// the paper's phase relation (every mutator is in the collector's phase
/// or its predecessor) — and counts the "early observation" states where a
/// mutator has loaded a control value the corresponding handshake has not
/// yet communicated to it.
pub(crate) fn fig3(f: &mut Flags) -> Run {
    let max = max_states(f, 5_000_000)?;
    let cfg = ModelConfig::small(1, 2);

    #[derive(Default)]
    struct Obs {
        relation: BTreeMap<(String, String, bool), usize>,
        early: usize,
    }
    // The observer mutates shared state per visited state, so the run
    // stays on the sequential strategy (the default): parallel workers may
    // re-evaluate a property on claim races, skewing exact counts.
    let obs: Arc<Mutex<Obs>> = Arc::default();
    let o2 = Arc::clone(&obs);
    let cfg2 = cfg.clone();
    let watcher = Property::labeled(
        "phase-relation-observer",
        move |st: &gc_model::ModelState| {
            let v = View::new(&cfg2, st);
            let sys = v.sys();
            let mut obs = o2.lock().expect("observer lock");
            for m in 0..cfg2.mutators {
                let ms = v.mutator(m);
                *obs.relation
                    .entry((
                        sys.ghost_gc_phase.to_string(),
                        ms.ghost_hs_phase.to_string(),
                        sys.pending(m),
                    ))
                    .or_insert(0) += 1;
                // "Early observation": the committed phase is already Mark or
                // beyond while the mutator's handshake phase says it has not
                // yet been told about Init — it could read the new value now.
                if sys.committed_phase() != Phase::Idle
                    && matches!(ms.ghost_hs_phase, HsPhase::Idle | HsPhase::IdleInit)
                {
                    obs.early += 1;
                }
            }
            None
        },
    );

    let reports = [check_config_with(
        "1 mutator, 2 slots",
        &cfg,
        max,
        vec![watcher, combined_property(&cfg)],
    )];
    print_table(&reports);

    let obs = obs.lock().expect("observer lock");
    println!("\nobserved (collector hs-phase, mutator hs-phase, pending) relation:");
    println!(
        "{:<22} {:<22} {:>8} {:>10}",
        "collector", "mutator", "pending", "states"
    );
    for ((c, m, p), n) in obs.relation.iter() {
        println!("{c:<22} {m:<22} {p:>8} {n:>10}");
    }
    println!(
        "\nstates where a mutator could observe a control value ahead of its \
         handshake phase: {}",
        obs.early
    );
    Ok(conclude(
        &reports,
        obs.early > 0 && reports[0].violated.is_none(),
        "TSO makes early observation reachable and the phase relation is invariant",
    ))
}

/// Priority of an event label for fig4's greedy schedule (lower =
/// preferred).
fn priority(label: &str) -> usize {
    const ORDER: &[&str] = &[
        "gc-flip-fM",
        "gc-phase-init",
        "gc-phase-mark",
        "gc-set-fA",
        "gc-hs-begin",
        "gc-hs-pend",
        "mut-hs-poll",
        "mut-hs-pick-root",
        "mark-load-fM",
        "mark-load-flag",
        "mark-load-phase",
        "mark-lock",
        "mark-cas-load-flag",
        "mark-set-flag",
        "sys-dequeue",
        "mark-unlock",
        "mut-hs-complete",
        "gc-hs-await",
    ];
    ORDER.iter().position(|l| *l == label).unwrap_or(usize::MAX)
}

fn label_of(ev: &ModelEvent) -> &'static str {
    match ev {
        ModelEvent::Tau { label, .. } => label,
        ModelEvent::Comm { send_label, .. } => send_label,
    }
}

/// **Figure 4 — anatomy of a handshake.**
///
/// Figure 4 is a sequence diagram: the collector updates control
/// variables, initiates the round at the system, each mutator polls its
/// bit, performs the requested work, transfers its work set, and the
/// system hands the merged set back to the collector.
///
/// This driver regenerates that diagram from the model itself: it drives
/// the model with a greedy scheduler that prefers handshake events and
/// prints the message sequence of the root-marking round — machine-checked
/// pseudo-UML.
pub(crate) fn fig4(f: &mut Flags) -> Run {
    f.finish()?;
    let mut cfg = ModelConfig::small(2, 3);
    cfg.ops.alloc = false; // keep the walk focused on the handshake
    let model = GcModel::new(cfg);
    let mut state = model.initial_states().remove(0);
    let mut events: Vec<ModelEvent> = Vec::new();

    // Walk greedily until the root-marking round has completed (the
    // get-roots await fires), or a step budget runs out.
    let mut roots_await_seen = false;
    for _ in 0..400 {
        let succs = model.successors(&state);
        let (ev, next) = succs
            .into_iter()
            .min_by_key(|(ev, _)| priority(label_of(ev)))
            .expect("the model never deadlocks");
        let is_roots_await = matches!(
            &ev,
            ModelEvent::Comm { req, .. } if req.kind == ReqKind::HsAwait
        ) && events.iter().any(|e| {
            matches!(e, ModelEvent::Comm { req, .. }
                if req.kind == ReqKind::HsBegin(HsType::GetRoots))
        });
        events.push(ev);
        state = next;
        if is_roots_await {
            roots_await_seen = true;
            break;
        }
    }
    assert!(roots_await_seen, "walk should complete the get-roots round");

    println!("the root-marking handshake, as executed by the model");
    println!("(one line per atomic event; compare with the paper's Figure 4):\n");
    print!("{}", model.format_trace(&events));
    println!(
        "\n{} events from idle to the collector holding the merged roots.",
        events.len()
    );
    Ok(Verdict::Holds)
}

/// **Figure 5 — `mark` and the CAS-avoidance design point.**
///
/// Figure 5's `mark` attempts the expensive CAS only when (a) the flag is
/// not already in the current sense and (b) a collection is active; all
/// racers witness the winner's mark, and only the winner enlists the
/// object. This driver checks the winner-uniqueness claim exhaustively in
/// the model (two mutators racing their barriers on a shared object) and
/// measures the fast path's effectiveness in the runtime: the fraction of
/// barrier executions that terminate after the two plain loads.
pub(crate) fn fig5(f: &mut Flags) -> Run {
    let max = max_states(f, 5_000_000)?;

    // `valid_W_inv` (checked in every state) asserts disjoint work-lists
    // and marked-on-heap entries: both fail if two racers ever win.
    let mut race = ModelConfig::small(2, 2);
    race.initial = InitialHeap::shared_object(2, 1);
    race.ops.alloc = false;
    race.ops.load = false;
    let reports = check_table(
        max,
        Suite::Full,
        &[("2 mutators racing marks on a shared object", &race)],
    );
    if let Some(refuted) = violation(&reports) {
        return Ok(refuted);
    }

    println!("\nruntime barrier profile (list churn, collector running):");
    let collector = Collector::new(GcConfig::builder().capacity(4096).max_fields(2).build());
    let mut m = collector.register_mutator();
    let anchor = m.alloc(2).expect("room");
    collector.start();
    otf_gc::churn_list(&mut m, anchor, 200_000, 1000, 0);
    collector.stop();
    let s = collector.stats();
    let checks = s.barrier_checks();
    let cas = s.barrier_cas_won() + s.barrier_cas_lost();
    println!(
        "mark entries: {checks}, CAS attempts: {cas} ({:.2}% — the rest took the two-load fast path)",
        100.0 * cas as f64 / checks.max(1) as f64
    );
    println!(
        "CAS won: {}, CAS lost (racer already marked): {}",
        s.barrier_cas_won(),
        s.barrier_cas_lost()
    );
    println!(
        "cycles: {}, allocated: {}, freed: {}",
        s.cycles(),
        s.allocated(),
        s.freed()
    );
    Ok(Verdict::Holds)
}

/// **Figure 6 — the mutator operations.**
///
/// `Load`, `Store` (with both barriers), `Alloc` (marked `f_A`) and
/// `Discard` are the whole heap-access protocol; the paper assumes type
/// safety but *not* data-race freedom. This driver verifies the full
/// invariant suite for instances restricted to each operation subset, so a
/// failure would localise to the operation that introduced it.
pub(crate) fn fig6(f: &mut Flags) -> Run {
    let max = max_states(f, 5_000_000)?;
    let with_ops = |ops: MutatorOps| ModelConfig {
        ops,
        ..ModelConfig::small(1, 2)
    };
    let off = MutatorOps {
        load: false,
        store: false,
        alloc: false,
        discard: true,
        mfence: false,
    };
    let rows = [
        ("discard only", with_ops(off)),
        (
            "alloc + discard",
            with_ops(MutatorOps { alloc: true, ..off }),
        ),
        ("load + discard", with_ops(MutatorOps { load: true, ..off })),
        (
            "store + discard",
            with_ops(MutatorOps { store: true, ..off }),
        ),
        ("all operations", with_ops(MutatorOps::default())),
    ];
    let rows: Vec<(&str, &ModelConfig)> = rows.iter().map(|(l, c)| (*l, c)).collect();
    let reports = check_table(max, Suite::Full, &rows);
    if let Some(refuted) = violation(&reports) {
        return Ok(refuted);
    }
    println!("\nevery operation subset preserves every invariant.");
    Ok(Verdict::Holds)
}

type P = Program<u32, u32, u32>;

/// Runs a lone process to completion (or to its first communication),
/// returning the labels it stepped through and its final state.
fn drive(p: &P, mut state: u32) -> (Vec<&'static str>, u32) {
    let mut stack = cimp::Stack::from(p.entry());
    let mut labels = Vec::new();
    loop {
        let steps = enabled_steps(p, &stack, &state);
        let Some(step) = steps.into_iter().next() else {
            break;
        };
        match step {
            PendingStep::Tau {
                label,
                stack: s,
                state: st,
            } => {
                labels.push(label);
                stack = s;
                state = st;
            }
            PendingStep::Send { label, .. } | PendingStep::Recv { label, .. } => {
                labels.push(label);
                break; // communication blocks a lone process
            }
        }
    }
    (labels, state)
}

/// **Figure 7 — CIMP process semantics.**
///
/// Exercises each small-step rule of the CIMP language on a miniature
/// program and prints the step sequences — the executable counterpart of
/// the paper's inference rules (local operations, sequential composition
/// via the frame stack, conditionals, loops, choice, and the
/// request/response pair that only fires as a system-level rendezvous).
pub(crate) fn fig7(f: &mut Flags) -> Run {
    f.finish()?;
    // LOCALOP: s' ∈ R s.
    let mut p = P::new();
    let op = p.local_op("nondet", |s, emit| {
        emit(s + 1);
        emit(s + 10);
    });
    p.set_entry(op);
    let n = enabled_steps(&p, &p.entry().into(), &0).len();
    println!("LOCALOP: one command, {n} enabled successors (data non-determinism)");

    // Seq via frame stack: c1 ;; c2.
    let mut p = P::new();
    let a = p.assign("first", |s| *s += 1);
    let b = p.assign("second", |s| *s *= 10);
    let s = p.seq2(a, b);
    p.set_entry(s);
    let (labels, end) = drive(&p, 0);
    println!("SEQ:     {labels:?} ends with state {end}");

    // If resolves structurally on local state.
    let mut p = P::new();
    let t = p.skip("then");
    let e = p.skip("else");
    let c = p.if_else(|s| *s == 0, t, e);
    p.set_entry(c);
    println!(
        "IF:      state 0 -> at {:?}; state 1 -> at {:?}",
        at_labels(&p, &p.entry().into(), &0),
        at_labels(&p, &p.entry().into(), &1)
    );

    // While iterates.
    let mut p = P::new();
    let body = p.assign("tick", |s| *s += 1);
    let w = p.while_do(|s| *s < 3, body);
    p.set_entry(w);
    let (labels, end) = drive(&p, 0);
    println!("WHILE:   {labels:?} ends with state {end}");

    // Choose offers all enabled branches; disabled guards prune.
    let mut p = P::new();
    let l = p.skip("left");
    let r = p.guard("right-if-positive", |s| *s > 0);
    let c = p.choose([l, r]);
    p.set_entry(c);
    println!(
        "CHOOSE:  state 0 offers {:?}; state 1 offers {:?}",
        at_labels(&p, &p.entry().into(), &0),
        at_labels(&p, &p.entry().into(), &1)
    );

    // Request blocks without a partner.
    let mut p = P::new();
    let req = p.request("ask", |s| *s, |s, beta| s + beta);
    p.set_entry(req);
    let steps = enabled_steps(&p, &p.entry().into(), &5);
    println!(
        "REQUEST: a lone process offers {:?} — it can only fire as a rendezvous (see fig8)",
        steps
    );
    Ok(Verdict::Holds)
}

struct Wrap(System<u32, u32, u32>);
impl TransitionSystem for Wrap {
    type State = cimp::UniformState<u32>;
    type Action = Event<u32, u32>;
    fn initial_states(&self) -> Vec<Self::State> {
        vec![self.0.initial_state()]
    }
    fn successors(&self, s: &Self::State) -> Vec<(Self::Action, Self::State)> {
        self.0.successors(s)
    }
}

fn counter(n: u32) -> P {
    let mut p = P::new();
    let body = p.assign("inc", move |s| *s += 1);
    let w = p.while_do(move |s| *s < n, body);
    p.set_entry(w);
    p
}

/// **Figure 8 — CIMP system semantics.**
///
/// The two rules of the global relation: interleaving of τ steps, and the
/// rendezvous that updates both parties simultaneously (sender's α from
/// its state, receiver's β chosen non-deterministically). Demonstrated by
/// counting interleavings of independent counters and by a client/server
/// exchange, including the no-self-rendezvous and filtered-response
/// corner cases.
pub(crate) fn fig8(f: &mut Flags) -> Run {
    f.finish()?;
    // Interleaving: two independent 3-step counters — the state space is
    // the (3+1)² grid, every interleaving explored.
    let sys = System::new(vec![("a", counter(3), 0), ("b", counter(3), 0)]);
    let stats = Checker::new().run(&Wrap(sys)).stats();
    println!(
        "interleaving: two 3-step counters -> {} states, {} transitions (4×4 grid)",
        stats.states, stats.transitions
    );
    assert_eq!(stats.states, 16);

    // Rendezvous: client asks with α = its state, server doubles it.
    let mut client = P::new();
    let ask = client.request("ask", |s| *s, |_, beta| *beta);
    client.set_entry(ask);
    let mut server = P::new();
    let answer = server.response("answer", 0, |alpha, s| Some((s + 1, alpha * 2)));
    server.set_entry(answer);
    let sys = System::new(vec![("client", client, 21), ("server", server, 100)]);
    let succs = sys.successors(&sys.initial_state());
    println!("\nrendezvous: {} global successor(s)", succs.len());
    for (ev, next) in &succs {
        println!("  {ev}   -> locals {:?}", &next.locals()[..next.len()]);
    }
    assert_eq!(succs[0].1.local(0), 42);
    assert_eq!(succs[0].1.local(1), 101);

    // No self-rendezvous: a lone requester is stuck.
    let mut lonely = P::new();
    let ask = lonely.request("ask", |s| *s, |s, _| *s);
    lonely.set_entry(ask);
    let sys = System::new(vec![("lonely", lonely, 0)]);
    println!(
        "\nno self-rendezvous: a lone requester has {} successors",
        sys.successors(&sys.initial_state()).len()
    );

    // Filtered responses: the receiver pattern-matches on α (how the GC
    // model's system process dispatches on request shapes).
    let mk = |v: u32| {
        let mut c = P::new();
        let ask = c.request("ask", |s| *s, |s, _| *s);
        c.set_entry(ask);
        let mut srv = P::new();
        let ans = srv.response("even-only", 0, |alpha, s| {
            if alpha % 2 == 0 {
                Some((*s, 0))
            } else {
                None
            }
        });
        srv.set_entry(ans);
        System::new(vec![("c", c, v), ("srv", srv, 0)])
    };
    println!(
        "filtered:  α=4 -> {} rendezvous, α=5 -> {} (receiver refuses odd requests)",
        mk(4).successors(&mk(4).initial_state()).len(),
        mk(5).successors(&mk(5).initial_state()).len()
    );
    Ok(Verdict::Holds)
}

/// **Figure 9 — the x86-TSO memory system.**
///
/// The paper encodes Sewell et al.'s x86-TSO in CIMP; our `tso-model`
/// crate implements the same transition rules. This driver validates the
/// implementation against the classic litmus shapes: the TSO-only relaxed
/// outcome of store buffering (SB), its disappearance under MFENCE, the
/// preservation of message passing (MP), and the exactly-one-winner
/// guarantee of locked CMPXCHG (the race Figure 5's `mark` relies on).
pub(crate) fn fig9(f: &mut Flags) -> Run {
    f.finish()?;
    println!(
        "{:<12} {:>9} {:>9} {:>11} {:>11}   note",
        "test", "TSO outs", "SC outs", "TSO states", "SC states"
    );
    println!("{}", "-".repeat(78));
    let relaxed = Outcome::new(vec![vec![0], vec![0]]);
    for test in [sb(), sb_fenced(), mp(), lb(), n6(), r_shape(), cas_race()] {
        let tso = test.outcomes(MemoryModel::Tso);
        let sc = test.outcomes(MemoryModel::Sc);
        let note = match test.name() {
            "SB" => {
                assert!(tso.contains(&relaxed) && !sc.contains(&relaxed));
                "r0=r1=0 admitted by TSO only"
            }
            "SB+mfences" => {
                assert!(!tso.contains(&relaxed));
                "MFENCEs restore SC"
            }
            "MP" => {
                assert!(!tso.contains(&Outcome::new(vec![vec![], vec![1, 0]])));
                "flag-then-stale-data forbidden"
            }
            "CAS-race" => {
                for o in &tso {
                    assert_eq!(o.regs().iter().map(|r| r[0]).sum::<u32>(), 1);
                }
                "exactly one winner, always"
            }
            "LB" => {
                assert_eq!(tso, sc);
                "load buffering forbidden (TSO = SC)"
            }
            "n6" => {
                assert!(tso.contains(&Outcome::new(vec![vec![1, 0], vec![]])));
                "own-store forwarding observable"
            }
            "R" => "store-buffer delay visible",
            _ => "",
        };
        println!(
            "{:<12} {:>9} {:>9} {:>11} {:>11}   {note}",
            test.name(),
            tso.len(),
            sc.len(),
            test.state_count(MemoryModel::Tso),
            test.state_count(MemoryModel::Sc),
        );
    }
    // IRIW (4 threads): TSO is multi-copy atomic — readers never disagree
    // on the order of independent writes.
    let t = iriw();
    for o in t.outcomes(MemoryModel::Tso) {
        let (r2, r3) = (&o.regs()[2], &o.regs()[3]);
        assert!(!(r2[0] == 1 && r2[1] == 0 && r3[0] == 1 && r3[1] == 0));
    }
    println!("IRIW (4 threads): no reader disagreement — TSO is multi-copy atomic");

    // 2+2W final memories: the cyclic final state is unreachable.
    let t = two_plus_two_w();
    let finals = t.final_memories(MemoryModel::Tso);
    assert!(!finals.contains(&vec![("x", 1), ("y", 2)]));
    println!(
        "2+2W: final x=1∧y=2 unreachable ({} final memories)",
        finals.len()
    );

    println!("\nall litmus expectations hold: the substrate matches x86-TSO.");
    Ok(Verdict::Holds)
}

/// **Figure 10 — the mark loop, and termination soundness.**
///
/// The subtle claim (§3.2 "Termination of Marking", `gc_W_empty_mut_inv`):
/// when the collector concludes the mark loop — its work-list is empty
/// after a get-work round — there are *no grey references anywhere*, so
/// sweeping is safe. This driver checks, over every reachable state, that
/// whenever the collector is about to write `phase := Sweep` the global
/// grey set is empty, on top of the standing `gc_W_empty_mut_inv`.
pub(crate) fn fig10(f: &mut Flags) -> Run {
    let max = max_states(f, 5_000_000)?;
    let cfg = ModelConfig::small(1, 2);

    // A second model instance to evaluate `at` inside the property.
    let observer_model = GcModel::new(cfg.clone());
    let cfg2 = cfg.clone();
    let no_grey_at_sweep = Property::labeled("no-greys-at-sweep-entry", move |st| {
        let at = observer_model.system().at(st, cimp::ProcId(0));
        if at.contains(&"gc-phase-sweep") {
            let v = View::new(&cfg2, st);
            if !v.greys().is_empty() {
                return Some("no-greys-at-sweep-entry");
            }
        }
        None
    });

    let reports = [check_config_with(
        "1 mutator, 2 slots, all ops",
        &cfg,
        max,
        vec![no_grey_at_sweep, combined_property(&cfg)],
    )];
    print_table(&reports);
    if let Some(refuted) = violation(&reports) {
        return Ok(refuted);
    }
    println!("\nwhenever the collector reaches `phase := Sweep`, the grey set is empty:");
    println!("mark-loop termination is sound (Figure 10 / gc_W_empty_mut_inv).");
    Ok(Verdict::Holds)
}
