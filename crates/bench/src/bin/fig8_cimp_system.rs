//! **Figure 8 — CIMP system semantics.**
//!
//! The two rules of the global relation: interleaving of τ steps, and the
//! rendezvous that updates both parties simultaneously (sender's α from
//! its state, receiver's β chosen non-deterministically). Demonstrated by
//! counting interleavings of independent counters and by a client/server
//! exchange, including the no-self-rendezvous and filtered-response
//! corner cases.

use cimp::{Event, Program, System};
use mc::{Checker, TransitionSystem};

type P = Program<u32, u32, u32>;

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

fn main() {
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
    let answer = server.response("answer", |alpha, s| Some((s + 1, alpha * 2)));
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
        let ans = srv.response("even-only", |alpha, s| {
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
}
