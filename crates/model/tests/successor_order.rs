//! The order in which the model lists a state's successors is part of what
//! it computes.
//!
//! The checker numbers successors in the order `successors_into` lists
//! them, and its parent links and replayed counterexamples follow those
//! numbers; a change that reorders them keeps every state count and
//! renumbers every link, which the recorded counterexamples catch only by
//! chance. So for the benchmark's three instances the first 20,000 states
//! are expanded breadth-first, and each expansion's ordered list of
//! (action as displayed, encoded successor) is folded into a running
//! digest, compared at expansions 1, 2, 4, …, 16,384 and 20,000 with the
//! digests the model produced before its successor computation was last
//! rewritten. On a mismatch the test names the first checkpoint that
//! differs and prints the first state of the expansions before it.

use std::collections::{HashSet, VecDeque};
use std::fmt::Write as _;

use cimp::ProcId;
use gc_model::{codec, GcModel, InitialHeap, ModelConfig, ModelState};
use mc::TransitionSystem;

const EXPANSIONS: usize = 20_000;

/// Expansion counts after which the running digest is compared.
fn checkpoints() -> Vec<usize> {
    let mut at: Vec<usize> = (0..15).map(|k| 1 << k).collect();
    at.push(EXPANSIONS);
    at
}

/// The flagship: two mutators sharing one object, no allocation.
fn flagship(buffer_cap: usize) -> ModelConfig {
    let mut cfg = ModelConfig::small(2, 2);
    cfg.initial = InitialHeap::shared_object(2, 1);
    cfg.ops.alloc = false;
    cfg.buffer_cap = buffer_cap;
    cfg
}

/// The four-slot heap under allocation and discard churn.
fn heap_churn() -> ModelConfig {
    let mut cfg = ModelConfig::small(2, 4);
    cfg.initial = InitialHeap::shared_object(2, 1);
    cfg.ops.load = false;
    cfg.ops.store = false;
    cfg
}

/// 64-bit FNV-1a: a digest whose value no toolchain update can move.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A length-prefixed field, so that adjacent fields cannot trade bytes.
    fn field(&mut self, bytes: &[u8]) {
        self.eat(&(bytes.len() as u64).to_le_bytes());
        self.eat(bytes);
    }
}

/// One expansion: each successor's action as displayed, its
/// self-contained encoding ([`codec::encode`]: the model's own encoding is
/// slot ids, which name states only within one model) and itself, in the
/// order the model lists them.
fn expansion(model: &GcModel, state: &ModelState) -> Vec<(String, Vec<u8>, ModelState)> {
    let mut succs = Vec::new();
    model.successors_into(state, &mut succs);
    let listed = succs.into_iter().map(|(action, succ)| {
        let mut bytes = Vec::new();
        codec::encode(&succ, &mut bytes);
        (action.to_string(), bytes, succ)
    });
    listed.collect()
}

/// The running digest at each checkpoint, and the state expanded first
/// after each previous checkpoint.
fn digests(cfg: ModelConfig) -> (Vec<u64>, Vec<ModelState>) {
    let model = GcModel::new(cfg);
    let init = model.initial_states()[0];
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut bytes = Vec::new();
    codec::encode(&init, &mut bytes);
    seen.insert(bytes);
    let mut frontier = VecDeque::from([init]);
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut at, mut firsts) = (Vec::new(), vec![init]);
    let stops = checkpoints();
    for expanded in 1..=EXPANSIONS {
        let state = frontier.pop_front().expect("the instance has more states");
        let listed = expansion(&model, &state);
        digest.eat(&(listed.len() as u64).to_le_bytes());
        for (action, bytes, succ) in listed {
            digest.field(action.as_bytes());
            digest.field(&bytes);
            if seen.insert(bytes) {
                frontier.push_back(succ);
            }
        }
        if stops.contains(&expanded) {
            at.push(digest.0);
            firsts.push(frontier[0]);
        }
    }
    (at, firsts)
}

fn check(name: &str, cfg: ModelConfig, recorded: [u64; 16]) {
    let model = GcModel::new(cfg.clone());
    let (got, firsts) = digests(cfg);
    let Some(k) = (0..got.len()).find(|&k| got[k] != recorded[k]) else {
        return;
    };
    let stops = checkpoints();
    let from = if k == 0 { 1 } else { stops[k - 1] + 1 };
    let first = &firsts[k];
    let mut shown = String::new();
    for p in 0..first.len() {
        let name = model.system().name(ProcId(p));
        let (control, local) = (first.control(p), first.local(p));
        let _ = writeln!(shown, "  {name}: {control:?} {local:?}");
    }
    shown += "into, in order:\n";
    for (action, ..) in expansion(&model, first) {
        let _ = writeln!(shown, "  {action}");
    }
    panic!(
        "{name}: the successor order differs by expansion {} (recorded {:#018x}, got {:#018x}); \
         the divergence is among expansions {from}..={}, the first of which expands\n{shown}\
         digests now: {got:#018x?}",
        stops[k], recorded[k], got[k], stops[k]
    );
}

#[test]
fn check_raw_lists_successors_in_the_recorded_order() {
    check(
        "check-raw",
        flagship(2),
        [
            0x423a_310e_7556_7ec8,
            0x4f15_4bad_0f70_2a5d,
            0x2bac_8060_8566_54bc,
            0xdf4a_7d00_8662_83fd,
            0x0a86_f42e_1848_fd35,
            0xc2eb_f6f8_62ad_3b3f,
            0x1d6d_bb3c_c5fe_b9a7,
            0x974f_d3e7_e829_3b85,
            0xaebd_ca3a_54b0_cbfa,
            0x906d_a614_3039_2d2c,
            0xf86d_c4db_252b_48c8,
            0x3f77_ce41_5943_49cc,
            0x7fc7_b59c_e8c9_0f8f,
            0x319f_5e04_60a9_72dd,
            0x02be_dca5_96d0_051e,
            0x32d4_242b_ff77_c6fb,
        ],
    );
}

#[test]
fn check_reduced_lists_successors_in_the_recorded_order() {
    check(
        "check-reduced",
        flagship(6),
        [
            0x423a_310e_7556_7ec8,
            0x4f15_4bad_0f70_2a5d,
            0x2bac_8060_8566_54bc,
            0xdf4a_7d00_8662_83fd,
            0x0a86_f42e_1848_fd35,
            0xc2eb_f6f8_62ad_3b3f,
            0x1d6d_bb3c_c5fe_b9a7,
            0x974f_d3e7_e829_3b85,
            0xaebd_ca3a_54b0_cbfa,
            0x906d_a614_3039_2d2c,
            0xf86d_c4db_252b_48c8,
            0x3f77_ce41_5943_49cc,
            0x7876_28ff_a1d5_d5d9,
            0x20db_0892_3467_2f38,
            0xe5c1_ea4d_158d_c478,
            0x3eec_a0a0_58f8_1340,
        ],
    );
}

#[test]
fn check_heap_par_lists_successors_in_the_recorded_order() {
    check(
        "check-heap-par",
        heap_churn(),
        [
            0x0949_d715_35e4_1ebe,
            0xb1be_9605_ef30_68c1,
            0x89d6_d7c5_dc5e_74b6,
            0x0c72_6619_0fdc_1e3e,
            0x74c4_7e25_de7b_2906,
            0xa108_be3e_efd6_ac5b,
            0xc406_23ce_c5f4_ece1,
            0xa67d_bfa8_a920_b5ec,
            0x4d40_d5ef_5b92_1e19,
            0x781f_bf61_f621_a014,
            0xc08b_b1c1_119a_9bdd,
            0x55e5_7def_1c37_b5e4,
            0x6e03_3748_44d0_a9a7,
            0x5416_b380_a2a8_d7c6,
            0x7bea_44bb_8673_7d3f,
            0x0854_7b1b_2240_5e2e,
        ],
    );
}
