//! **Figure 7 — CIMP process semantics.**
//!
//! Exercises each small-step rule of the CIMP language on a miniature
//! program and prints the step sequences — the executable counterpart of
//! the paper's inference rules (local operations, sequential composition
//! via the frame stack, conditionals, loops, choice, and the
//! request/response pair that only fires as a system-level rendezvous).

use cimp::step::{at_labels, enabled_steps, PendingStep};
use cimp::Program;

type P = Program<u32, u32, u32>;

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
            other => {
                labels.push(match other {
                    PendingStep::Send { label, .. } => label,
                    PendingStep::Recv { label, .. } => label,
                    PendingStep::Tau { .. } => unreachable!(),
                });
                break; // communication blocks a lone process
            }
        }
    }
    (labels, state)
}

fn main() {
    // LOCALOP: s' ∈ R s.
    let mut p = P::new();
    let op = p.local_op("nondet", |s| vec![s + 1, s + 10]);
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
}
