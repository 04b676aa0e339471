//! Model configuration: instance bounds, initial heap shapes, and the
//! ablation knobs that drive the paper's negative-result experiments.

use gc_types::RefSet;
use tso_model::MemoryModel;

use crate::vocab::MAX_FIELDS;

/// Which mutator operations (Figure 6) are enabled. Trimming the operation
/// mix shrinks the state space for targeted experiments (e.g. the Figure 1
/// scenario needs only `store` and `discard`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutatorOps {
    /// `Load`: read a field of a root into the roots.
    pub load: bool,
    /// `Store`: write a root into a field of a root, with write barriers.
    pub store: bool,
    /// `Alloc`: allocate a fresh object (mark sense `f_A`).
    pub alloc: bool,
    /// `Discard`: drop a reference from the roots.
    pub discard: bool,
    /// A spontaneous `MFENCE`.
    pub mfence: bool,
}

impl Default for MutatorOps {
    fn default() -> Self {
        MutatorOps {
            load: true,
            store: true,
            alloc: true,
            discard: true,
            mfence: false, // rarely interesting; off by default to save states
        }
    }
}

/// The initial heap: object field contents and per-mutator root sets.
/// All initial objects carry flag `false`, which is *black* under the
/// initial mark sense `f_M = false` — the paper's between-cycles state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InitialHeap {
    /// `fields[i][f]` is the initial content of field `f` of object `i`
    /// (an index into the object list).
    pub objects: Vec<Vec<Option<u8>>>,
    /// `roots[m]` are the object indices initially rooted by mutator `m`.
    pub roots: Vec<Vec<u8>>,
}

impl InitialHeap {
    /// One object per mutator, each mutator rooting its own object.
    pub fn one_object_each(mutators: usize, fields: usize) -> Self {
        InitialHeap {
            objects: (0..mutators).map(|_| vec![None; fields]).collect(),
            roots: (0..mutators).map(|m| vec![m as u8]).collect(),
        }
    }

    /// A single object rooted by every mutator (maximal sharing).
    pub fn shared_object(mutators: usize, fields: usize) -> Self {
        InitialHeap {
            objects: vec![vec![None; fields]],
            roots: (0..mutators).map(|_| vec![0]).collect(),
        }
    }

    /// A chain `o0 → o1 → … → o(k-1)` (via field 0), with every mutator
    /// rooting the head — the Figure 1 grey-protection shape.
    pub fn chain(mutators: usize, length: usize, fields: usize) -> Self {
        assert!(length >= 1);
        let objects = (0..length)
            .map(|i| {
                let mut fs = vec![None; fields];
                if i + 1 < length {
                    fs[0] = Some((i + 1) as u8);
                }
                fs
            })
            .collect();
        InitialHeap {
            objects,
            roots: (0..mutators).map(|_| vec![0]).collect(),
        }
    }
}

/// The full model configuration: instance bounds, memory model, initial
/// heap, and ablation switches. The defaults describe the *faithful* model;
/// every ablation is opt-in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelConfig {
    /// Number of mutator threads.
    pub mutators: usize,
    /// Heap capacity (object slots).
    pub heap_capacity: usize,
    /// Reference fields per object.
    pub fields: usize,
    /// Store-buffer capacity per thread. The paper leaves the buffer size
    /// unspecified; hardware buffers are finite, and a bound is required
    /// for a finite state space. A store is simply not schedulable while
    /// the issuing thread's buffer is full.
    pub buffer_cap: usize,
    /// TSO (the paper's setting) or SC (for the fence ablations).
    pub memory_model: MemoryModel,
    /// The initial heap and roots.
    pub initial: InitialHeap,
    /// Which mutator operations are enabled.
    pub ops: MutatorOps,
    /// **Ablation** — `false` disables the deletion barrier in `Store`
    /// (Figure 6 line 8): the Figure 1 hiding scenario becomes reachable.
    pub deletion_barrier: bool,
    /// **Ablation** — `false` disables the insertion barrier in `Store`
    /// (Figure 6 line 9): on-the-fly snapshotting becomes unsound.
    pub insertion_barrier: bool,
    /// **Ablation** — `false` removes the `MFENCE`s from both sides of the
    /// handshake protocol (§2.4's fence discipline).
    pub handshake_fences: bool,
    /// **Ablation** — `false` replaces the locked CAS in `mark` (Figure 5)
    /// by an unsynchronised read-then-write: racing markers may both win,
    /// breaking work-list disjointness.
    pub mark_cas: bool,
    /// **Ablation** — `true` moves the `f_A ← f_M` write to immediately
    /// after the `f_M` flip (during the Idle handshake phase), before the
    /// mutators are known to have their insertion barriers installed —
    /// the scenario `hp_InitMark` in §3.2 warns about.
    pub premature_alloc_black: bool,
    /// **Observation §4** — skip the second initialization noop handshake
    /// (the one after the `f_M` flip, lines 6–7 of Figure 2).
    pub skip_noop2: bool,
    /// **Observation §4** — skip the third initialization noop handshake
    /// (the one after `phase ← Init`, lines 9–10 of Figure 2).
    pub skip_noop3: bool,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            mutators: 1,
            heap_capacity: 3,
            fields: 1,
            buffer_cap: 2,
            memory_model: MemoryModel::Tso,
            initial: InitialHeap::one_object_each(1, 1),
            ops: MutatorOps::default(),
            deletion_barrier: true,
            insertion_barrier: true,
            handshake_fences: true,
            mark_cas: true,
            premature_alloc_black: false,
            skip_noop2: false,
            skip_noop3: false,
        }
    }
}

impl ModelConfig {
    /// A small faithful configuration: `mutators` mutators, `heap_capacity`
    /// slots, one field per object, each mutator rooting its own object.
    pub fn small(mutators: usize, heap_capacity: usize) -> Self {
        assert!(mutators >= 1 && heap_capacity >= mutators);
        ModelConfig {
            mutators,
            heap_capacity,
            initial: InitialHeap::one_object_each(mutators, 1),
            ..ModelConfig::default()
        }
    }

    /// The hardware-thread id of the collector.
    pub fn gc_tid(&self) -> usize {
        0
    }

    /// The hardware-thread id of mutator `m`.
    pub fn mut_tid(&self, m: usize) -> usize {
        1 + m
    }

    /// Total hardware threads (collector + mutators).
    pub fn threads(&self) -> usize {
        1 + self.mutators
    }

    /// Validates internal consistency, and that the instance fits the
    /// inline state: reference sets are one word, per-mutator flags one
    /// byte, and the TSO machine's tables are fixed-size. An instance past
    /// a bound is refused here, by name, rather than truncated later.
    ///
    /// # Panics
    ///
    /// Panics if the initial heap does not fit the declared bounds, or the
    /// declared bounds do not fit the state.
    pub fn validate(&self) {
        assert!(self.mutators >= 1, "at least one mutator required");
        assert!(
            self.threads() <= tso_model::MAX_THREADS,
            "{} mutators: at most {} fit the machine's {} hardware threads",
            self.mutators,
            tso_model::MAX_THREADS - 1,
            tso_model::MAX_THREADS
        );
        assert!(
            self.heap_capacity <= RefSet::CAPACITY,
            "heap_capacity {}: a RefSet holds references 0..{}",
            self.heap_capacity,
            RefSet::CAPACITY
        );
        assert!(
            self.fields <= MAX_FIELDS,
            "fields {}: addresses are bytes, leaving {MAX_FIELDS} fields per object",
            self.fields
        );
        assert!(
            self.buffer_cap <= tso_model::BUFFER_CAPACITY,
            "buffer_cap {}: a store buffer holds at most {} writes",
            self.buffer_cap,
            tso_model::BUFFER_CAPACITY
        );
        let cells = 3 + self.heap_capacity * (1 + self.fields);
        assert!(
            cells <= tso_model::MEMORY_CELLS,
            "3 control variables + {} objects x (flag + {} fields) = {cells} locations: \
             the machine's memory holds {}",
            self.heap_capacity,
            self.fields,
            tso_model::MEMORY_CELLS
        );
        assert!(
            self.initial.objects.len() <= self.heap_capacity,
            "initial objects exceed heap capacity"
        );
        assert_eq!(
            self.initial.roots.len(),
            self.mutators,
            "initial roots must cover every mutator"
        );
        for obj in &self.initial.objects {
            assert_eq!(obj.len(), self.fields, "initial object arity mismatch");
            for f in obj.iter().flatten() {
                assert!((*f as usize) < self.initial.objects.len());
            }
        }
        for roots in &self.initial.roots {
            for r in roots {
                assert!((*r as usize) < self.initial.objects.len());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        ModelConfig::default().validate();
    }

    #[test]
    fn small_config_shapes() {
        let cfg = ModelConfig::small(2, 4);
        cfg.validate();
        assert_eq!(cfg.mutators, 2);
        assert_eq!(cfg.initial.objects.len(), 2);
        assert_eq!(cfg.mut_tid(1), 2);
        assert_eq!(cfg.threads(), 3);
    }

    #[test]
    fn chain_shape() {
        let h = InitialHeap::chain(1, 3, 2);
        assert_eq!(h.objects.len(), 3);
        assert_eq!(h.objects[0][0], Some(1));
        assert_eq!(h.objects[1][0], Some(2));
        assert_eq!(h.objects[2][0], None);
        assert_eq!(h.roots, vec![vec![0]]);
    }

    #[test]
    fn instances_past_an_inline_bound_are_refused_by_name() {
        let refused = |cfg: ModelConfig, why: &str| {
            let panic = std::panic::catch_unwind(|| cfg.validate()).expect_err(why);
            let message = panic.downcast_ref::<String>().expect("a formatted panic");
            assert!(message.contains(why), "{message:?} should name {why:?}");
        };
        let base = ModelConfig::default();
        let mut eight = ModelConfig::small(8, 8);
        eight.heap_capacity = 8;
        refused(eight, "at most 7 fit");
        refused(
            ModelConfig {
                heap_capacity: 65,
                ..base.clone()
            },
            "RefSet holds references 0..64",
        );
        let mut three_fields = base.clone();
        three_fields.fields = 3;
        three_fields.initial = InitialHeap::one_object_each(1, 3);
        refused(three_fields, "leaving 2 fields per object");
        refused(
            ModelConfig {
                buffer_cap: 9,
                ..base.clone()
            },
            "holds at most 8 writes",
        );
        refused(
            ModelConfig {
                heap_capacity: 15,
                ..base.clone()
            },
            "33 locations",
        );
        // The largest instances on the near side of each bound are fine.
        ModelConfig {
            heap_capacity: 14,
            buffer_cap: 8,
            ..base
        }
        .validate();
        ModelConfig::small(7, 7).validate();
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn bad_initial_heap_is_rejected() {
        let mut cfg = ModelConfig::default();
        cfg.initial.objects = vec![vec![None, None]]; // 2 fields, cfg says 1
        cfg.validate();
    }
}
