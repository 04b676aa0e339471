//! Seeded random-walk exploration.

use crate::outcome::{Bound, Outcome, Stats, Trace};
use crate::property::{first_violation, Property};
use crate::TransitionSystem;

/// A tiny SplitMix64 stream; good enough for picking successors and fully
/// reproducible from the seed. The checker keeps its own copy rather than
/// sharing `otf_gc::chaos::splitmix64_next`: `mc` depends on no crate of
/// the runtime pipeline by design (only on the leaf `gc-trace`).
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Walks `ts` for at most `max_steps` uniformly-random transitions,
/// checking every property at every state.
///
/// A completed walk is [`Outcome::BoundReached`] with [`Bound::Steps`]
/// (a walk never verifies anything); a stuck walk is
/// [`Outcome::Deadlock`]; a violation carries the (non-minimal) walk
/// prefix as its trace. `stats.states` counts the visited states of the
/// walk, without deduplication.
pub(crate) fn run<TS>(
    properties: &[Property<TS::State>],
    ts: &TS,
    max_steps: usize,
    seed: u64,
) -> Outcome<TS>
where
    TS: TransitionSystem,
{
    let mut rng = SplitMix64::new(seed.wrapping_add(0x9e37_79b9_7f4a_7c15));

    let inits = ts.initial_states();
    assert!(!inits.is_empty(), "no initial states");
    let pick = rng.next_u64() as usize % inits.len();
    let mut state = inits.into_iter().nth(pick).expect("picked in range");
    let mut actions: Vec<TS::Action> = Vec::new();
    // One scratch buffer serves the whole walk (no per-step allocation).
    let mut succs: Vec<(TS::Action, TS::State)> = Vec::new();

    loop {
        let steps = actions.len();
        let stats = Stats {
            states: steps + 1,
            transitions: steps,
            depth: steps,
        };
        if let Some(property) = first_violation(properties, &state) {
            return Outcome::Violated {
                property,
                trace: Trace { actions, state },
                stats,
            };
        }
        if steps == max_steps {
            return Outcome::BoundReached {
                bound: Bound::Steps(max_steps),
                stats,
            };
        }
        succs.clear();
        ts.successors_into(&state, &mut succs);
        if succs.is_empty() {
            return Outcome::Deadlock {
                trace: Trace { actions, state },
                stats,
            };
        }
        let pick = rng.next_u64() as usize % succs.len();
        let (action, next) = succs.swap_remove(pick);
        actions.push(action);
        state = next;
    }
}
