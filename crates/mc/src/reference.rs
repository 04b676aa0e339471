//! A reference for the BFS engine: a plain sequential search written from
//! the semantics `bfs.rs` documents, run against the engine on seeded
//! random transition systems.
//!
//! The reference shares nothing with the engine but the `Outcome` types:
//! one `HashMap` of visited states, one `Vec` per level, properties checked
//! when a state is discovered, and a trace taken by walking parent links.
//! What it encodes is the engine's contract:
//!
//! * a level is expanded in frontier order, each state's successors in
//!   ordinal order, so a state's discovery order is `(position, ordinal)`
//!   and its first discovery is its parent link;
//! * duplicates are judged against the states of earlier levels, so every
//!   transition of the level counts before any verdict of the level;
//! * the level's new states get ids in discovery order, and each verdict
//!   is reported at the point of that walk where a sequential search meets
//!   it: a deadlock at its frontier position, the state bound before the
//!   id past it, a violation at the violating state's id;
//! * at the depth bound, states are not expanded, and one with successors
//!   ends the run at the end of its level unless a deadlock comes first.
//!
//! Random graphs are where claim races, ties between equal orders and the
//! engine's block boundaries (128-state arena blocks, 4,096-entry link
//! blocks) meet, which hand-built systems do not reach.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::outcome::{Bound, Outcome, Stats, Trace};
use crate::property::{first_violation, Property};
use crate::walk::SplitMix64;
use crate::{CheckerConfig, Reduction, TransitionSystem};

/// The reference search. Returns the outcome and the widest level seen.
fn reference<TS: TransitionSystem>(
    config: &CheckerConfig,
    properties: &[Property<TS::State>],
    ts: &TS,
) -> (Outcome<TS>, usize) {
    let canon = |s: TS::State| match config.reduction.symmetry || config.reduction.sb_canon {
        true => ts.canonicalize(&s, &config.reduction),
        false => s,
    };
    let mut states: Vec<TS::State> = Vec::new();
    let mut parents: Vec<Option<(usize, TS::Action)>> = Vec::new();
    let mut ids: HashMap<TS::State, usize> = HashMap::new();
    for init in ts.initial_states().into_iter().map(canon) {
        if !ids.contains_key(&init) {
            ids.insert(init.clone(), states.len());
            states.push(init);
            parents.push(None);
        }
    }
    let trace = |states: &[TS::State], parents: &[Option<(usize, TS::Action)>], id: usize| {
        let (mut actions, mut at) = (Vec::new(), id);
        while let Some((parent, action)) = &parents[at] {
            actions.push(action.clone());
            at = *parent;
        }
        actions.reverse();
        Trace {
            actions,
            state: states[id].clone(),
        }
    };
    let stats = |states: usize, transitions, depth| Stats {
        states,
        transitions,
        depth,
    };
    for (id, state) in states.iter().enumerate() {
        if let Some(property) = first_violation(properties, state) {
            let trace = trace(&states, &parents, id);
            return (
                Outcome::Violated {
                    property,
                    trace,
                    stats: stats(states.len(), 0, 0),
                },
                states.len(),
            );
        }
    }
    let (mut level, mut begin, mut transitions, mut widest) = (0, 0, 0, 0);
    loop {
        let end = states.len();
        widest = widest.max(end - begin);
        if begin == end {
            let depth = level.max(1) - 1;
            return (Outcome::Verified(stats(end, transitions, depth)), widest);
        }
        let expanding = level < config.max_depth;
        let (mut deadlock, mut cutoff) = (None, None);
        let mut discovered: Vec<(TS::State, usize, TS::Action)> = Vec::new();
        let mut claimed: HashSet<TS::State> = HashSet::new();
        for (at, state) in states.iter().enumerate().skip(begin) {
            let succs = ts.successors(state);
            if succs.is_empty() {
                if config.forbid_deadlock {
                    deadlock = deadlock.or(Some(at));
                }
            } else if !expanding {
                cutoff = cutoff.or(Some(at));
            } else {
                for (action, succ) in succs {
                    transitions += 1;
                    let succ = canon(succ);
                    if !ids.contains_key(&succ) && claimed.insert(succ.clone()) {
                        discovered.push((succ, at, action));
                    }
                }
            }
        }
        let mut ending = None;
        for (state, parent, action) in discovered {
            if deadlock.is_some_and(|d| d < parent) {
                break;
            }
            if states.len() >= config.max_states {
                let bound = Bound::States(config.max_states);
                ending = Some(Outcome::BoundReached {
                    bound,
                    stats: stats(states.len(), transitions, level),
                });
                break;
            }
            let id = states.len();
            ids.insert(state.clone(), id);
            states.push(state);
            parents.push(Some((parent, action)));
            if let Some(property) = first_violation(properties, &states[id]) {
                ending = Some(Outcome::Violated {
                    property,
                    trace: trace(&states, &parents, id),
                    stats: stats(states.len(), transitions, level + 1),
                });
                break;
            }
        }
        let ending = ending.or_else(|| match (deadlock, cutoff) {
            (Some(d), c) if c.is_none_or(|c| d < c) => Some(Outcome::Deadlock {
                trace: trace(&states, &parents, d),
                stats: stats(states.len(), transitions, level),
            }),
            (_, Some(_)) => Some(Outcome::BoundReached {
                bound: Bound::Depth(config.max_depth),
                stats: stats(states.len(), transitions, level),
            }),
            _ => None,
        });
        if let Some(outcome) = ending {
            return (outcome, widest);
        }
        (level, begin) = (level + 1, end);
    }
}

/// A seeded random transition system over states `0..n`.
struct RandomSystem {
    roots: Vec<u32>,
    /// Each state's successors, in ordinal order.
    succs: Vec<Vec<u32>>,
    /// Each state's orbit representative: `rep[rep[s]] == rep[s]`.
    rep: Vec<u32>,
    /// Whether the system has a codec, so that the engine keeps its
    /// levels encoded and may spill them.
    codec: bool,
}

impl TransitionSystem for RandomSystem {
    type State = u32;
    /// `(source, ordinal)`: the edge's own name.
    type Action = (u32, u8);

    fn initial_states(&self) -> Vec<u32> {
        self.roots.clone()
    }

    fn successors(&self, s: &u32) -> Vec<((u32, u8), u32)> {
        let succs = self.succs[*s as usize].iter();
        succs
            .enumerate()
            .map(|(i, &t)| ((*s, i as u8), t))
            .collect()
    }

    fn canonicalize(&self, s: &u32, _: &Reduction) -> u32 {
        self.rep[*s as usize]
    }

    /// A state is its index, in as many bytes as it needs: records of
    /// one or two bytes.
    fn encode_state(&self, s: &u32, bytes: &mut Vec<u8>) -> bool {
        let significant = (u32::BITS - s.leading_zeros()).div_ceil(8).max(1);
        if self.codec {
            bytes.extend_from_slice(&s.to_le_bytes()[..significant as usize]);
        }
        self.codec
    }

    fn decode_state(&self, bytes: &[u8]) -> Option<u32> {
        let mut word = [0; 4];
        word.get_mut(..bytes.len())?.copy_from_slice(bytes);
        let s = u32::from_le_bytes(word);
        let known = self.codec && !bytes.is_empty() && (s as usize) < self.succs.len();
        known.then_some(s)
    }
}

/// A system of 10²–10⁴ states (log-uniform) with 1–4 roots (duplicates
/// allowed), 1–4 successors a state (near-forward, back, self-loop,
/// random, repeated), some deadlocked states, an orbit map for
/// `canonicalize`, and two properties that fail on random states.
fn random_system(seed: u64) -> (RandomSystem, Vec<Property<u32>>, Reduction, bool) {
    let mut rng = SplitMix64::new(seed);
    let mut below = |n: u64| rng.next_u64() % n;
    let n = (100.0 * 100f64.powf(below(1 << 20) as f64 / (1 << 20) as f64)) as u32;
    let dead_permille = [0, 1, 10][below(3) as usize];
    let mut succs = Vec::with_capacity(n as usize);
    for s in 0..n {
        let mut out: Vec<u32> = Vec::new();
        if below(1000) >= dead_permille {
            for _ in 0..=below(4) {
                let t = match below(20) {
                    0..=7 => (s + 1 + below(8) as u32) % n,
                    8..=12 => below(u64::from(s) + 1) as u32,
                    13..=14 => s,
                    15..=17 => below(u64::from(n)) as u32,
                    _ => out.last().copied().unwrap_or(s),
                };
                out.push(t);
            }
        }
        succs.push(out);
    }
    let roots = (0..=below(4)).map(|_| below(u64::from(n)) as u32).collect();
    let mut rep: Vec<u32> = Vec::with_capacity(n as usize);
    for s in 0..n {
        let r = if s > 0 && below(2) == 0 {
            rep[below(u64::from(s)) as usize]
        } else {
            s
        };
        rep.push(r);
    }
    let density = [0, 0, 200, 2_000][below(4) as usize];
    let mut bad = || -> Arc<HashSet<u32>> {
        Arc::new((0..n).filter(|_| below(1_000_000) < density).collect())
    };
    let (a, b) = (bad(), bad());
    let properties = vec![
        Property::new("not-a", move |s: &u32| !a.contains(s)),
        Property::new("not-b", move |s: &u32| !b.contains(s)),
    ];
    let reduction = Reduction {
        symmetry: below(2) == 0,
        ..Reduction::default()
    };
    let forbid_deadlock = below(2) == 0;
    (
        RandomSystem {
            roots,
            succs,
            rep,
            codec: false,
        },
        properties,
        reduction,
        forbid_deadlock,
    )
}

/// What a run of the reference covered, summed over seeds.
#[derive(Default)]
struct Coverage {
    verdicts: HashSet<&'static str>,
    widest_level: usize,
    most_states: usize,
    /// Seeds whose system had a codec, and those that set a spill
    /// threshold.
    encoded: usize,
    spilled: usize,
}

/// Checks the engine against the reference on `seed`'s system: unbounded,
/// under a state bound and under a depth bound, each at 1/2/4 threads in
/// exact and hash-compact mode. On half the seeds the system has a codec,
/// so the engine keeps its levels encoded, and spills every level, those
/// past a small threshold, or none.
fn agree_on(seed: u64, coverage: &mut Coverage) {
    let (mut ts, properties, reduction, forbid_deadlock) = random_system(seed);
    let n = ts.succs.len();
    let mut rng = SplitMix64::new(!seed);
    let bounds = [
        (usize::MAX, usize::MAX),
        (1 + rng.next_u64() as usize % n, usize::MAX),
        (usize::MAX, rng.next_u64() as usize % 12),
    ];
    ts.codec = rng.next_u64().is_multiple_of(2);
    let spill_threshold = match rng.next_u64() % 3 {
        _ if !ts.codec => None,
        0 => None,
        1 => Some(1),
        _ => Some(2 + rng.next_u64() as usize % 64),
    };
    coverage.encoded += usize::from(ts.codec);
    coverage.spilled += usize::from(spill_threshold.is_some());
    for (max_states, max_depth) in bounds {
        let config = CheckerConfig {
            max_states,
            max_depth,
            forbid_deadlock,
            spill_threshold,
            ..CheckerConfig::default()
        }
        .reduction(reduction);
        let (expected, widest) = reference(&config, &properties, &ts);
        coverage.verdicts.insert(match &expected {
            Outcome::Verified(_) => "verified",
            Outcome::Violated { .. } => "violated",
            Outcome::Deadlock { .. } => "deadlock",
            Outcome::BoundReached {
                bound: Bound::States(_),
                ..
            } => "state bound",
            _ => "depth bound",
        });
        coverage.widest_level = coverage.widest_level.max(widest);
        coverage.most_states = coverage.most_states.max(expected.stats().states);
        let expected = format!("{expected:?}");
        for threads in [1, 2, 4] {
            for hash_compact in [false, true] {
                let config = CheckerConfig {
                    hash_compact,
                    ..config.clone()
                };
                let got = crate::bfs::run(&config, &properties, &ts, threads);
                assert_eq!(
                    format!("{got:?}"),
                    expected,
                    "seed {seed}, {max_states} states / depth {max_depth}, \
                     {threads} thread(s), hash-compact {hash_compact}, \
                     codec {}, spill threshold {spill_threshold:?}",
                    ts.codec
                );
            }
        }
    }
}

#[test]
fn the_engine_agrees_with_the_reference_on_random_systems() {
    let seeds: usize = if cfg!(debug_assertions) { 200 } else { 1_000 };
    let mut coverage = Coverage::default();
    for seed in 0..seeds as u64 {
        agree_on(seed, &mut coverage);
    }
    for verdict in [
        "verified",
        "violated",
        "deadlock",
        "state bound",
        "depth bound",
    ] {
        assert!(coverage.verdicts.contains(verdict), "no {verdict} run");
    }
    // Past the engine's arena block (128) and link block (4,096).
    assert!(coverage.widest_level > 128, "{}", coverage.widest_level);
    assert!(coverage.most_states > 4_096, "{}", coverage.most_states);
    // About half the seeds keep levels encoded, two thirds of those spill.
    assert!(4 * coverage.encoded > seeds && 4 * coverage.encoded < 3 * seeds);
    assert!(2 * coverage.spilled > coverage.encoded);
}
