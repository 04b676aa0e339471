//! The order in which the model lists a state's successors is part of what
//! it computes.
//!
//! The checker numbers successors in the order `successors_into` lists
//! them, and its parent links and replayed counterexamples follow those
//! numbers; a change that reorders them keeps every state count and
//! renumbers every link, which the recorded counterexamples catch only by
//! chance. So for the benchmark's three instances the first 20,000 states
//! are expanded breadth-first, and each expansion's ordered list of
//! (action as displayed, successor as displayed) is folded into a running
//! digest, compared at expansions 1, 2, 4, …, 16,384 and 20,000 with the
//! digests the model produced before its successor computation was last
//! rewritten. On a mismatch the test names the first checkpoint that
//! differs and prints the first state of the expansions before it.
//!
//! A successor is displayed as each process's control stack and local
//! state in `Debug` form: text that names the state without the model
//! that reached it (the model's own encoding is slot ids, which name
//! states only within one model's memos), and that no change to how states
//! hash can move (the whole state's `Debug` also prints its digests).

use std::collections::{HashSet, VecDeque};
use std::fmt::Write as _;

use cimp::ProcId;
use gc_model::{GcModel, InitialHeap, ModelConfig, ModelState};
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

/// `state` as each process's control stack and local state in `Debug`
/// form, one line each.
fn display(state: &ModelState) -> String {
    let mut text = String::new();
    for p in 0..state.len() {
        let _ = writeln!(text, "{:?} {:?}", state.control(p), state.local(p));
    }
    text
}

/// One expansion: each successor's action as displayed and itself, in the
/// order the model lists them.
fn expansion(model: &GcModel, state: &ModelState) -> Vec<(String, ModelState)> {
    let mut succs = Vec::new();
    model.successors_into(state, &mut succs);
    succs
        .into_iter()
        .map(|(action, succ)| (action.to_string(), succ))
        .collect()
}

/// The running digest at each checkpoint, and the state expanded first
/// after each previous checkpoint.
fn digests(cfg: ModelConfig) -> (Vec<u64>, Vec<ModelState>) {
    let model = GcModel::new(cfg);
    let init = model.initial_states()[0];
    let mut seen: HashSet<ModelState> = HashSet::from([init]);
    let mut frontier = VecDeque::from([init]);
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut at, mut firsts) = (Vec::new(), vec![init]);
    let stops = checkpoints();
    for expanded in 1..=EXPANSIONS {
        let state = frontier.pop_front().expect("the instance has more states");
        let listed = expansion(&model, &state);
        digest.eat(&(listed.len() as u64).to_le_bytes());
        for (action, succ) in listed {
            digest.field(action.as_bytes());
            digest.field(display(&succ).as_bytes());
            if seen.insert(succ) {
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
    for (p, line) in display(first).lines().enumerate() {
        let _ = writeln!(shown, "  {}: {line}", model.system().name(ProcId(p)));
    }
    shown += "into, in order:\n";
    for (action, _) in expansion(&model, first) {
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
            0x35ef_7f85_270a_e705,
            0xfa56_736d_9bda_5424,
            0xbb70_cf10_283b_e075,
            0x7985_d11d_d1a1_fd97,
            0x9b13_b185_69aa_cd0d,
            0x88b5_0a3b_04b0_767b,
            0xd4a5_d749_2ad9_ef5d,
            0xcfd0_cb66_0419_8f6e,
            0xffb5_1152_5c58_6c34,
            0xb582_89cd_0d82_e6df,
            0x9402_197f_1009_b11b,
            0x6d05_9706_b0bd_df04,
            0x563d_a6aa_b4cd_45a9,
            0xa356_6701_83b0_8f3c,
            0x1aa6_a933_3009_e4e7,
            0xbaba_f5ac_b4c5_8c61,
        ],
    );
}

#[test]
fn check_reduced_lists_successors_in_the_recorded_order() {
    check(
        "check-reduced",
        flagship(6),
        [
            0x35ef_7f85_270a_e705,
            0xfa56_736d_9bda_5424,
            0xbb70_cf10_283b_e075,
            0x7985_d11d_d1a1_fd97,
            0x9b13_b185_69aa_cd0d,
            0x88b5_0a3b_04b0_767b,
            0xd4a5_d749_2ad9_ef5d,
            0xcfd0_cb66_0419_8f6e,
            0xffb5_1152_5c58_6c34,
            0xb582_89cd_0d82_e6df,
            0x9402_197f_1009_b11b,
            0x6d05_9706_b0bd_df04,
            0xbff1_b784_fbf2_cddd,
            0x9ad1_9832_484b_c645,
            0xb57f_62c9_3825_b713,
            0x1a8a_79e7_daa3_97eb,
        ],
    );
}

#[test]
fn check_heap_par_lists_successors_in_the_recorded_order() {
    check(
        "check-heap-par",
        heap_churn(),
        [
            0xb359_c9db_9f3e_1885,
            0x1b79_bb90_f3fe_1f5e,
            0xdf4d_d94c_db18_2e73,
            0xf316_7327_acb9_e09c,
            0x087a_db9e_a46a_02d8,
            0x853d_4b34_1d8d_9c94,
            0x01dc_7c29_a521_dfb3,
            0x4837_47f8_c2c4_2926,
            0xbf5d_cd83_39be_d599,
            0xaaf2_a139_89e1_339b,
            0x53f0_cf7e_ee6a_a579,
            0xa6d5_0fa7_163d_b6f3,
            0xc104_1487_5c75_b047,
            0x4f76_9a43_9d6b_4cad,
            0xc515_d0c3_05ac_4be6,
            0xad89_9e22_efa1_4eab,
        ],
    );
}
