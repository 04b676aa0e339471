//! The level-synchronous (parallel) breadth-first exploration engine.
//!
//! One algorithm serves every thread count: the BFS proceeds level by
//! level, and each level's frontier is partitioned across workers in fixed
//! blocks handed out by an atomic cursor.
//!
//! Duplicate detection reads a seen-set of `NSHARDS` shards (states routed
//! by hash) *without a lock*: the seen-set is only written in the
//! sequential drain, so the workers of a level share it frozen. A
//! successor not yet seen is *claimed* in the level's claim table — as
//! many shards, each behind its own lock — with its *discovery order*
//! `(frontier position, successor ordinal)`, the position at which the
//! equivalent sequential search would first reach it. One lock either
//! lowers an existing claim's order or inserts a new claim. When two
//! parents race for the same successor the smaller order wins, so after
//! the level is drained in sorted order the assigned state ids, parent
//! links, verdicts and counterexample traces are identical for 1, 2 or N
//! worker threads — and identical to a plain sequential BFS.
//!
//! Properties are evaluated in parallel, once per discovered state, by the
//! worker whose claim inserted it, outside the lock; a violation is kept
//! with the claimed state and reported at the state's deterministic drain
//! position, so the reported counterexample is a shortest one and the
//! reported state count matches the sequential checker's exactly.
//!
//! # Reductions
//!
//! When [`CheckerConfig::reduction`] enables them, a reduction layer sits
//! between the transition system and the search:
//!
//! * **Partial-order reduction** — each expansion asks the system for an
//!   [ample subset](crate::TransitionSystem::ample_successors_into) of its
//!   successors. The engine enforces the cycle proviso (C3) itself: the
//!   seen-set is frozen during the parallel phase (it is only mutated in
//!   the sequential drain), so "every ample successor already seen" is a
//!   deterministic predicate, and any state for which it holds is expanded
//!   in full instead — an action can therefore never be postponed around a
//!   cycle forever.
//! * **Canonicalization** (symmetry orbits, store-buffer normal forms) —
//!   every successor is mapped through
//!   [`canonicalize`](crate::TransitionSystem::canonicalize) before
//!   dedup/property checks, so an equivalence class costs one state.
//!
//! Determinism is unaffected: reductions are pure functions of the state,
//! applied before the (already deterministic) claim protocol.
//!
//! # Encoded levels and disk spill
//!
//! For a system with a state codec, a level is its states' *records* — a
//! `u32` length, then the encoded state — in id order, written during the
//! drain and read back block-by-block by the workers of the next level,
//! each through a reader of its own, which decodes a state just before it
//! is expanded. The records lie in one buffer, or, with
//! [`CheckerConfig::spill_threshold`] set and the level larger than it, in
//! a temporary file: one format and one reader for both. Ids within a
//! level are consecutive, so a level stores only states.
//!
//! # Counterexamples
//!
//! A visited state keeps one 8-byte [`Link`] for the whole run — its
//! parent's id and its ordinal in that parent's expansion — and no edge
//! label. A counterexample is rebuilt by walking the links back to an
//! initial state and *replaying forward*: expand, take the recorded
//! ordinal, canonicalize, repeat. An expansion is a function of the parent
//! state alone, except that the C3 fallback above reads the level's frozen
//! seen-set; so a link also says which list its ordinal indexes.
//!
//! # Arenas
//!
//! A state may be a few words or a few kilobytes of inline data. A claimed
//! state is stored once, in its worker's [`Arena`], and never moves again:
//! the claim tables and the drain's sort handle its 8-byte position. With
//! a codec it is encoded as soon as it is claimed, its properties already
//! evaluated, into the arena's buffer of records, which the drain copies
//! into the next level in id order. Without one it is copied into the
//! arena's fixed blocks of [`ARENA_BLOCK`] states, and the next level is
//! the arenas plus the drain's id-ordered list of positions. Blocks come
//! from a [`Pool`] the engine owns and go back to it once their level has
//! been expanded and the next one drained, so a run holds the blocks of at
//! most two adjacent levels, and allocates none once it has that many.
//! Buffers of records are not pooled: an arena's is freed once it is
//! drained, and a level's — allocated at its exact size by the drain —
//! once the level is expanded. Pooled, they made the next run in the same
//! process slower after a two-thread one (DESIGN §2.5).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::hash::{BuildHasher, Hash};
use std::io::{BufReader, BufWriter, Cursor, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::config::{CheckerConfig, Reduction};
use crate::hash::{Fingerprint, FxBuild};
use crate::outcome::{Bound, Outcome, Stats, Trace};
use crate::property::{first_violation, Property};
use crate::telemetry::{Retained, Telemetry};
use crate::TransitionSystem;

const SHARD_BITS: u32 = 6;
/// Number of seen-set and claim-table shards (a power of two; states
/// routed by hash).
const NSHARDS: usize = 1 << SHARD_BITS;
/// Frontier positions claimed per dispenser grab.
const BLOCK: usize = 32;
/// States per arena block.
pub(crate) const ARENA_BLOCK: usize = 128;

/// The shard a state with routing hash `route` belongs to.
fn shard_of(route: u64) -> usize {
    (route >> (64 - SHARD_BITS)) as usize
}

/// How duplicate detection stores states: exact (the state itself is the
/// key) or hash-compact (a 128-bit fingerprint is the key).
trait Mode<TS: TransitionSystem>: Sync {
    /// What the seen-set and the claim tables store.
    type Key: Eq + Hash + Send + Sync;
    /// A cheap, `Copy` digest computed once per successor and reused for
    /// routing and lookups.
    type Probe: Copy;

    fn probe(&self, s: &TS::State) -> Self::Probe;
    fn route(p: Self::Probe) -> u64;
    fn seen(seen: &HashSet<Self::Key, FxBuild>, p: Self::Probe, s: &TS::State) -> bool;
    /// Lowers an existing claim on `s` to `pending`'s order, or inserts
    /// `pending` and returns `true`.
    fn claim(
        claims: &mut HashMap<Self::Key, Pending, FxBuild>,
        p: Self::Probe,
        s: &TS::State,
        pending: Pending,
    ) -> bool;
    fn key(p: Self::Probe, s: &TS::State) -> Self::Key;
}

/// Exact dedup: the seen-set owns every visited state.
struct Exact;

impl<TS: TransitionSystem> Mode<TS> for Exact {
    type Key = TS::State;
    type Probe = u64;

    fn probe(&self, s: &TS::State) -> u64 {
        FxBuild::default().hash_one(s)
    }

    fn route(p: u64) -> u64 {
        p
    }

    fn seen(seen: &HashSet<TS::State, FxBuild>, _p: u64, s: &TS::State) -> bool {
        seen.contains(s)
    }

    /// Clones the state only for a new claim.
    fn claim(
        claims: &mut HashMap<TS::State, Pending, FxBuild>,
        _p: u64,
        s: &TS::State,
        pending: Pending,
    ) -> bool {
        if let Some(claim) = claims.get_mut(s) {
            claim.lower(pending.order);
            return false;
        }
        claims.insert(s.clone(), pending);
        true
    }

    fn key(_p: u64, s: &TS::State) -> TS::State {
        s.clone()
    }
}

/// Hash-compact dedup: the seen-set stores 128-bit fingerprints, two
/// independently keyed lanes filled by one pass over the state.
struct Compact {
    keys: [u64; 2],
}

impl Compact {
    /// Lane keys drawn from the process's hash randomness.
    fn new() -> Self {
        let random = || std::collections::hash_map::RandomState::new().hash_one(0u8);
        Compact {
            keys: [random(), random()],
        }
    }
}

impl<TS: TransitionSystem> Mode<TS> for Compact {
    type Key = u128;
    type Probe = u128;

    fn probe(&self, s: &TS::State) -> u128 {
        let mut fingerprint = Fingerprint::keyed(self.keys);
        s.hash(&mut fingerprint);
        fingerprint.finish128()
    }

    fn route(p: u128) -> u64 {
        p as u64
    }

    fn seen(seen: &HashSet<u128, FxBuild>, p: u128, _s: &TS::State) -> bool {
        seen.contains(&p)
    }

    fn claim(
        claims: &mut HashMap<u128, Pending, FxBuild>,
        p: u128,
        _s: &TS::State,
        pending: Pending,
    ) -> bool {
        match claims.entry(p) {
            Entry::Occupied(mut claim) => {
                claim.get_mut().lower(pending.order);
                false
            }
            Entry::Vacant(slot) => {
                slot.insert(pending);
                true
            }
        }
    }

    fn key(p: u128, _s: &TS::State) -> u128 {
        p
    }
}

/// A claim on a successor discovered during the current level, keyed in
/// its shard by the dedup key.
#[derive(Clone, Copy)]
struct Pending {
    /// The state's [`Link`] with its parent's frontier position for the
    /// parent id — the deterministic discovery order used to resolve claim
    /// races and to drain the level (one expansion's successors share the
    /// ample bit, so it never reorders them).
    order: u64,
    /// Where the claimant keeps the state.
    at: At,
}

impl Pending {
    /// Another parent reached the claimed state at `order`: the earlier
    /// discovery wins.
    fn lower(&mut self, order: u64) {
        self.order = self.order.min(order);
    }
}

/// Where a claimed state lies in the arena of the worker that claimed it:
/// `worker << 40 | place`, the place being the state's index among the
/// arena's states, or the byte offset of its record among the arena's
/// records.
#[derive(Clone, Copy)]
struct At(u64);

impl At {
    const PLACE_BITS: u32 = 40;

    fn new(worker: usize, place: usize) -> At {
        assert!(
            place >> At::PLACE_BITS == 0,
            "an arena holds under a terabyte"
        );
        At((worker as u64) << At::PLACE_BITS | place as u64)
    }

    fn worker(self) -> usize {
        (self.0 >> At::PLACE_BITS) as usize
    }

    fn place(self) -> usize {
        (self.0 & ((1 << At::PLACE_BITS) - 1)) as usize
    }
}

/// The engine's spare arena blocks: each holds up to [`ARENA_BLOCK`]
/// states and is either in some arena or here.
struct Pool<S> {
    free: Mutex<Vec<Vec<S>>>,
    /// Blocks made over the run.
    made: AtomicUsize,
}

impl<S> Pool<S> {
    fn new() -> Self {
        Pool {
            free: Mutex::new(Vec::new()),
            made: AtomicUsize::new(0),
        }
    }

    /// An empty block: a spare one, or a new one if none is spare.
    fn take(&self) -> Vec<S> {
        let spare = self.free.lock().expect("pool lock").pop();
        spare.unwrap_or_else(|| {
            self.made.fetch_add(1, Ordering::Relaxed);
            Vec::with_capacity(ARENA_BLOCK)
        })
    }

    /// Takes `arena`'s blocks back, emptied.
    fn give(&self, arena: Arena<S>) {
        let blocks = arena.blocks.into_iter().map(|mut block| {
            block.clear();
            block
        });
        self.free.lock().expect("pool lock").extend(blocks);
    }

    /// The capacity of every block made: once a level is retired, those of
    /// the next level's arenas and the spare ones.
    fn bytes(&self) -> usize {
        self.made.load(Ordering::Relaxed) * ARENA_BLOCK * size_of::<S>()
    }
}

/// The states one worker claimed during one level, in claim order, each
/// stored once where it never moves: for a system without a codec, copied
/// into blocks from the [`Pool`]; for one with a codec, encoded as a
/// record (a `u32` length, then the bytes) into the arena's buffer.
struct Arena<S> {
    blocks: Vec<Vec<S>>,
    records: Vec<u8>,
    /// `(place, property)` for each state here that violates a property,
    /// by place.
    violations: Vec<(usize, &'static str)>,
}

impl<S: Clone> Arena<S> {
    fn new() -> Self {
        Arena {
            blocks: Vec::new(),
            records: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// Where the next state will lie: its index among the states, or its
    /// record's offset among the records.
    fn next_place(&self, encoded: bool) -> usize {
        if encoded {
            return self.records.len();
        }
        self.blocks
            .last()
            .map_or(0, |last| (self.blocks.len() - 1) * ARENA_BLOCK + last.len())
    }

    /// Copies `state` in at index `next_place(false)`.
    fn push(&mut self, pool: &Pool<S>, state: &S) {
        if self.blocks.last().is_none_or(|b| b.len() == ARENA_BLOCK) {
            self.blocks.push(pool.take());
        }
        self.blocks
            .last_mut()
            .expect("just ensured")
            .push(state.clone());
    }

    /// Encodes `state` in at offset `next_place(true)`.
    fn push_encoded<TS>(&mut self, ts: &TS, state: &S)
    where
        TS: TransitionSystem<State = S>,
    {
        put_record(ts, state, &mut self.records);
    }

    fn get(&self, index: usize) -> &S {
        &self.blocks[index / ARENA_BLOCK][index % ARENA_BLOCK]
    }

    /// The record at `offset`, its length included.
    fn record(&self, offset: usize) -> &[u8] {
        let len = u32::from_le_bytes(
            self.records[offset..offset + 4]
                .try_into()
                .expect("a length"),
        );
        &self.records[offset..offset + 4 + len as usize]
    }

    /// The state at `place`, decoded if encoded.
    fn state<TS>(&self, ts: &TS, place: usize, encoded: bool) -> S
    where
        TS: TransitionSystem<State = S>,
    {
        if encoded {
            let record = &self.record(place)[4..];
            ts.decode_state(record).expect("decode a claimed state")
        } else {
            self.get(place).clone()
        }
    }

    /// The property the state at `place` violates, if any.
    fn violation(&self, place: usize) -> Option<&'static str> {
        let found = self.violations.binary_search_by_key(&place, |&(i, _)| i);
        found.ok().map(|k| self.violations[k].1)
    }
}

/// Appends `state`'s record to `out`: its encoding's length as a
/// little-endian `u32`, then the encoding.
fn put_record<TS: TransitionSystem>(ts: &TS, state: &TS::State, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    assert!(
        ts.encode_state(state, out),
        "encode_state failed mid-search"
    );
    let len = u32::try_from(out.len() - start - 4).expect("state encoding fits u32");
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// A BFS level in memory: the arenas its states were claimed into, one per
/// worker, and where each state lies, in id order.
struct Level<S> {
    arenas: Vec<Arena<S>>,
    ids: Vec<At>,
}

impl<S: Clone> Level<S> {
    fn get(&self, pos: usize) -> &S {
        let at = self.ids[pos];
        self.arenas[at.worker()].get(at.place())
    }

    /// Gives the level's blocks back to `pool`.
    fn retire(self, pool: &Pool<S>) {
        self.arenas.into_iter().for_each(|arena| pool.give(arena));
    }
}

/// Per-worker results for one level.
struct WorkerOut<S> {
    /// This worker's index: the arena its claims point into.
    worker: usize,
    /// The states this worker claimed.
    arena: Arena<S>,
    transitions: usize,
    /// Smallest frontier position whose state has no successors.
    deadlock: Option<u32>,
    /// Smallest frontier position with successors at a depth-bounded level.
    cutoff: Option<u32>,
}

fn min_pos(slot: &mut Option<u32>, pos: u32) {
    *slot = Some(slot.map_or(pos, |p| p.min(pos)));
}

/// Where a visited state came from: `parent id << 32 | ample bit << 31 |
/// ordinal` — the `ordinal`-th successor of state `parent`, counted in its
/// ample set if the bit is set and in its full successor list otherwise. An
/// initial state is the `ordinal`-th of `initial_states()`, under `ROOT`.
#[derive(Clone, Copy)]
struct Link(u64);

const _: () = assert!(size_of::<Link>() == 8);

impl Link {
    /// The parent id no state has: the BFS stops before assigning it.
    const ROOT: u32 = u32::MAX;
    const AMPLE: u64 = 1 << 31;

    /// `ord` is checked against the 31 bits once per expansion.
    fn new(parent: u32, ample: bool, ord: usize) -> Link {
        Link(u64::from(parent) << 32 | u64::from(ample) << 31 | ord as u64)
    }

    /// `(parent, ample, ordinal)`.
    fn unpack(self) -> (u32, bool, usize) {
        let ordinal = (self.0 & (Link::AMPLE - 1)) as usize;
        ((self.0 >> 32) as u32, self.0 & Link::AMPLE != 0, ordinal)
    }
}

/// Parent links for trace reconstruction, indexed by state id: one per
/// visited state, for the whole run. Kept in equal blocks rather than one
/// growing vector, so that growth never copies the links (briefly holding
/// them twice) nor strands the outgrown buffer in the allocator — which is
/// what peak memory is made of once states themselves are small.
struct Links {
    blocks: Vec<Vec<Link>>,
}

impl Links {
    const BLOCK: usize = 1 << 12;

    fn push(&mut self, link: Link) {
        if self.blocks.last().is_none_or(|b| b.len() == Self::BLOCK) {
            self.blocks.push(Vec::with_capacity(Self::BLOCK));
        }
        self.blocks.last_mut().expect("just ensured").push(link);
    }

    fn get(&self, id: u32) -> Link {
        self.blocks[id as usize / Self::BLOCK][id as usize % Self::BLOCK]
    }
}

/// The counterexample ending in the state with id `at`, which is `state`.
fn rebuild_trace<TS: TransitionSystem>(
    ts: &TS,
    reduction: &Reduction,
    links: &Links,
    at: u32,
    state: TS::State,
) -> Trace<TS> {
    let mut steps = Vec::new();
    let (mut parent, mut ample, mut ordinal) = links.get(at).unpack();
    while parent != Link::ROOT {
        steps.push((ample, ordinal));
        (parent, ample, ordinal) = links.get(parent).unpack();
    }
    let mut cur = canonical(ts, reduction, ts.initial_states().swap_remove(ordinal));
    let mut scratch: Vec<(TS::Action, TS::State)> = Vec::new();
    let mut actions = Vec::with_capacity(steps.len());
    for (ample, ordinal) in steps.into_iter().rev() {
        scratch.clear();
        if ample {
            ts.ample_successors_into(&cur, reduction, &mut scratch);
        } else {
            ts.successors_into(&cur, &mut scratch);
        }
        let (action, succ) = scratch.swap_remove(ordinal);
        actions.push(action);
        cur = canonical(ts, reduction, succ);
    }
    assert!(cur == state, "the replay left the path the search took");
    Trace { actions, state }
}

/// `state`'s representative under the enabled canonicalizing reductions.
fn canonical<TS: TransitionSystem>(ts: &TS, reduction: &Reduction, state: TS::State) -> TS::State {
    if reduction.symmetry || reduction.sb_canon {
        ts.canonicalize(&state, reduction)
    } else {
        state
    }
}

/// One BFS level, in id order. Ids within a level are consecutive, so a
/// level stores only states; the engine keeps the id of position 0.
enum Frontier<S> {
    /// A system without a codec: the states, where they were claimed.
    States(Level<S>),
    /// A system with a codec: the states' records.
    Encoded(EncodedLevel),
}

impl<S: Clone> Frontier<S> {
    fn len(&self) -> usize {
        match self {
            Frontier::States(level) => level.ids.len(),
            Frontier::Encoded(level) => level.len,
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Retrieves one state by position — used only for trace
    /// reconstruction (deadlocks), never on the hot path.
    fn fetch<TS: TransitionSystem<State = S>>(&self, ts: &TS, pos: usize) -> S {
        match self {
            Frontier::States(level) => level.get(pos).clone(),
            Frontier::Encoded(level) => {
                let mut reader = level.reader();
                let block = pos / BLOCK * BLOCK;
                reader.seek_block(level, block);
                (block..pos).for_each(|_| drop(reader.next(ts)));
                reader.next(ts).0
            }
        }
    }

    /// The capacity of the level's buffer, if it holds one.
    fn buffer_bytes(&self) -> usize {
        match self {
            Frontier::Encoded(EncodedLevel {
                store: Store::Mem(bytes),
                ..
            }) => bytes.capacity(),
            _ => 0,
        }
    }

    /// Gives the level's blocks back to `pool`; a buffer is freed.
    fn retire(self, pool: &Pool<S>) {
        if let Frontier::States(level) = self {
            level.retire(pool);
        }
    }
}

/// A level of records, in one buffer or spilled to a temporary file, with
/// the byte offset of every [`BLOCK`]-th record, so that workers can seek
/// straight to a claimed block, each through a reader of its own.
struct EncodedLevel {
    len: usize,
    block_offsets: Vec<u64>,
    store: Store,
}

enum Store {
    Mem(Vec<u8>),
    Disk(SpillFile),
}

impl EncodedLevel {
    /// A reader of its own on the level: one per worker per level.
    fn reader(&self) -> LevelReader<'_> {
        let source: Box<dyn ReadSeek + '_> = match &self.store {
            Store::Mem(bytes) => Box::new(Cursor::new(&bytes[..])),
            Store::Disk(file) => Box::new(BufReader::new(
                File::open(&file.0).expect("open spill file"),
            )),
        };
        LevelReader {
            source,
            bytes: Vec::new(),
        }
    }

    fn on_disk(&self) -> bool {
        matches!(self.store, Store::Disk(_))
    }
}

trait ReadSeek: Read + Seek {}

impl<T: Read + Seek> ReadSeek for T {}

/// A spill file, removed when dropped.
struct SpillFile(PathBuf);

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Distinguishes concurrently created spill files within one process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// One worker's reader of an encoded level, and the scratch a record is
/// read into, both kept across blocks.
struct LevelReader<'a> {
    source: Box<dyn ReadSeek + 'a>,
    bytes: Vec<u8>,
}

impl LevelReader<'_> {
    /// Places the reader at record `start` of `level`, which must be
    /// block-aligned (it is the offset granularity).
    fn seek_block(&mut self, level: &EncodedLevel, start: usize) {
        debug_assert_eq!(start % BLOCK, 0);
        // A worker mostly claims consecutive blocks: seek (and drop what is
        // buffered) only when the next one is elsewhere.
        let offset = level.block_offsets[start / BLOCK];
        if self.source.stream_position().expect("level position") != offset {
            self.source
                .seek(SeekFrom::Start(offset))
                .expect("seek level");
        }
    }

    /// Decodes the next record's state. Returns it with the bytes read
    /// (for the spill-read telemetry counter).
    fn next<TS: TransitionSystem>(&mut self, ts: &TS) -> (TS::State, u64) {
        let mut len = [0u8; 4];
        self.source
            .read_exact(&mut len)
            .expect("read record length");
        let n = u32::from_le_bytes(len) as usize;
        self.bytes.resize(n, 0);
        self.source
            .read_exact(&mut self.bytes)
            .expect("read record");
        let state = ts.decode_state(&self.bytes);
        (state.expect("decode a frontier state"), 4 + n as u64)
    }
}

/// Writes a level's records, in id order, during the drain: into a buffer,
/// or into a spill file.
struct LevelWriter {
    sink: Sink,
    len: usize,
    block_offsets: Vec<u64>,
    bytes: u64,
}

enum Sink {
    Mem(Vec<u8>),
    Disk(BufWriter<File>, SpillFile),
}

impl LevelWriter {
    fn new(sink: Sink) -> LevelWriter {
        LevelWriter {
            sink,
            len: 0,
            block_offsets: Vec::new(),
            bytes: 0,
        }
    }

    /// A writer into a new buffer of `capacity` bytes.
    fn memory(capacity: usize) -> LevelWriter {
        LevelWriter::new(Sink::Mem(Vec::with_capacity(capacity)))
    }

    /// A writer into a new spill file. A writer abandoned mid-drain
    /// (verdict reached before the level completed) removes its file.
    fn spill() -> std::io::Result<LevelWriter> {
        let path = std::env::temp_dir().join(format!(
            "mc-spill-{}-{}.bin",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let file = File::create(&path)?;
        Ok(LevelWriter::new(Sink::Disk(
            BufWriter::new(file),
            SpillFile(path),
        )))
    }

    /// Appends `record`, as [`put_record`] wrote it.
    fn push(&mut self, record: &[u8]) {
        if self.len.is_multiple_of(BLOCK) {
            self.block_offsets.push(self.bytes);
        }
        match &mut self.sink {
            Sink::Mem(bytes) => bytes.extend_from_slice(record),
            Sink::Disk(writer, _) => writer.write_all(record).expect("write spill file"),
        }
        self.bytes += record.len() as u64;
        self.len += 1;
    }

    /// Bytes written to disk.
    fn spilled(&self) -> u64 {
        match self.sink {
            Sink::Mem(_) => 0,
            Sink::Disk(..) => self.bytes,
        }
    }

    fn finish(self) -> EncodedLevel {
        let store = match self.sink {
            Sink::Mem(bytes) => Store::Mem(bytes),
            Sink::Disk(mut writer, file) => {
                writer.flush().expect("flush spill file");
                Store::Disk(file)
            }
        };
        EncodedLevel {
            len: self.len,
            block_offsets: self.block_offsets,
            store,
        }
    }
}

pub(crate) fn run<TS>(
    config: &CheckerConfig,
    properties: &[Property<TS::State>],
    ts: &TS,
    threads: usize,
) -> Outcome<TS>
where
    TS: TransitionSystem,
{
    if config.hash_compact {
        level_bfs(config, properties, ts, threads, &Compact::new())
    } else {
        level_bfs(config, properties, ts, threads, &Exact)
    }
}

/// Everything a worker needs to expand one frontier state; bundled so the
/// in-memory and spilled frontier paths share one expansion body.
struct ExpandCtx<'a, TS: TransitionSystem, M: Mode<TS>> {
    mode: &'a M,
    ts: &'a TS,
    properties: &'a [Property<TS::State>],
    /// The seen-set, frozen for the level.
    seen: &'a [HashSet<M::Key, FxBuild>],
    claims: &'a [Mutex<HashMap<M::Key, Pending, FxBuild>>],
    pool: &'a Pool<TS::State>,
    /// Whether claimed states are kept encoded: the system has a codec.
    encoded: bool,
    reduction: Reduction,
    expanding: bool,
    forbid_deadlock: bool,
    deadline: Option<Instant>,
    stop: &'a AtomicBool,
    telemetry: &'a Telemetry,
}

impl<TS: TransitionSystem, M: Mode<TS>> ExpandCtx<'_, TS, M> {
    /// Attributes upcoming canonicalizations to individual techniques for
    /// the `mc_reduction_hits_total` counters: a successor counts as a
    /// symmetry merge (resp. sb-canon coalesce) when applying *only* that
    /// technique changes it. Counting only — the search itself always uses
    /// the combined `canonicalize` call, so applying the techniques
    /// separately here cannot perturb dedup, state counts or verdicts.
    /// Runs only when a metrics registry is attached.
    fn attribute_canon(&self, scratch: &[(TS::Action, TS::State)]) {
        let sym_only = Reduction {
            symmetry: true,
            ..Reduction::default()
        };
        let sb_only = Reduction {
            sb_canon: true,
            ..Reduction::default()
        };
        for (_, succ) in scratch {
            if self.reduction.symmetry && self.ts.canonicalize(succ, &sym_only) != *succ {
                self.telemetry.symmetry_merge();
            }
            if self.reduction.sb_canon && self.ts.canonicalize(succ, &sb_only) != *succ {
                self.telemetry.sb_coalesce();
            }
        }
    }

    /// Whether `s` was visited before this level.
    fn seen(&self, probe: M::Probe, s: &TS::State) -> bool {
        M::seen(&self.seen[shard_of(M::route(probe))], probe, s)
    }

    /// Expands one frontier state into the sharded claim tables and the
    /// worker's arena, applying the configured reductions. Returns `false`
    /// when the worker should stop (deadline hit or another worker
    /// signalled stop).
    fn expand_one(
        &self,
        pos: usize,
        state: &TS::State,
        scratch: &mut Vec<(TS::Action, TS::State)>,
        out: &mut WorkerOut<TS::State>,
    ) -> bool {
        if self.stop.load(Ordering::Relaxed) {
            return false;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.stop.store(true, Ordering::Relaxed);
                return false;
            }
        }
        let canon = self.reduction.symmetry || self.reduction.sb_canon;
        scratch.clear();
        let reduced = if self.reduction.por {
            self.ts
                .ample_successors_into(state, &self.reduction, scratch)
        } else {
            self.ts.successors_into(state, scratch);
            false
        };
        if canon {
            if self.telemetry.attributing() {
                self.attribute_canon(scratch);
            }
            for (_, succ) in scratch.iter_mut() {
                *succ = self.ts.canonicalize(succ, &self.reduction);
            }
        }
        let mut ample = reduced;
        if reduced {
            self.telemetry.por_ample();
            // Cycle proviso (C3): the seen-set is frozen during the
            // parallel phase, so this check is deterministic. If every
            // ample successor was already visited, the ample set could
            // close a cycle postponing the deferred actions forever —
            // fall back to the full expansion.
            let all_seen = !scratch.is_empty()
                && scratch
                    .iter()
                    .all(|(_, succ)| self.seen(self.mode.probe(succ), succ));
            if all_seen {
                self.telemetry.por_fallback();
                ample = false;
                scratch.clear();
                self.ts.successors_into(state, scratch);
                if canon {
                    if self.telemetry.attributing() {
                        self.attribute_canon(scratch);
                    }
                    for (_, succ) in scratch.iter_mut() {
                        *succ = self.ts.canonicalize(succ, &self.reduction);
                    }
                }
            }
        }
        if scratch.is_empty() {
            if self.forbid_deadlock {
                min_pos(&mut out.deadlock, pos as u32);
            }
            return true;
        }
        if !self.expanding {
            // At the depth bound states are not expanded (and, matching
            // the sequential checker, their outgoing edges not counted);
            // the first such state triggers `Bound::Depth` at drain.
            min_pos(&mut out.cutoff, pos as u32);
            return true;
        }
        assert!(scratch.len() as u64 <= Link::AMPLE, "ordinals fit 31 bits");
        for (ord, (_, succ)) in scratch.iter().enumerate() {
            out.transitions += 1;
            let probe = self.mode.probe(succ);
            if self.seen(probe, succ) {
                continue;
            }
            let place = out.arena.next_place(self.encoded);
            let pending = Pending {
                // Frontier positions are below the state count, which fits
                // 32 bits.
                order: Link::new(pos as u32, ample, ord).0,
                at: At::new(out.worker, place),
            };
            let claimed = {
                let shard = &self.claims[shard_of(M::route(probe))];
                M::claim(
                    &mut shard.lock().expect("claims lock"),
                    probe,
                    succ,
                    pending,
                )
            };
            if claimed {
                // The first discovery (so far) of this state: evaluate the
                // properties on it outside the lock, and keep it.
                if let Some(name) = first_violation(self.properties, succ) {
                    out.arena.violations.push((place, name));
                }
                if self.encoded {
                    out.arena.push_encoded(self.ts, succ);
                } else {
                    out.arena.push(self.pool, succ);
                }
            }
        }
        true
    }
}

/// Expands one worker's share of the frontier, claiming successors into
/// the sharded claim tables and the worker's arena. A single scratch
/// buffer serves every state this worker expands.
fn expand_blocks<TS, M>(
    ctx: &ExpandCtx<'_, TS, M>,
    frontier: &Frontier<TS::State>,
    cursor: &AtomicUsize,
    worker: usize,
) -> WorkerOut<TS::State>
where
    TS: TransitionSystem,
    M: Mode<TS>,
{
    let mut out = WorkerOut {
        worker,
        arena: Arena::new(),
        transitions: 0,
        deadlock: None,
        cutoff: None,
    };
    let mut scratch: Vec<(TS::Action, TS::State)> = Vec::new();
    let mut reader = match frontier {
        Frontier::States(_) => None,
        Frontier::Encoded(level) => Some(level.reader()),
    };
    'grab: loop {
        let start = cursor.fetch_add(BLOCK, Ordering::Relaxed);
        if start >= frontier.len() {
            break;
        }
        let end = (start + BLOCK).min(frontier.len());
        match frontier {
            Frontier::States(level) => {
                for pos in start..end {
                    if !ctx.expand_one(pos, level.get(pos), &mut scratch, &mut out) {
                        break 'grab;
                    }
                }
            }
            Frontier::Encoded(level) => {
                let reader = reader.as_mut().expect("opened for an encoded level");
                reader.seek_block(level, start);
                let (mut read, mut expanded) = (0, true);
                for pos in start..end {
                    let (state, bytes) = reader.next(ctx.ts);
                    read += bytes;
                    expanded = ctx.expand_one(pos, &state, &mut scratch, &mut out);
                    if !expanded {
                        break;
                    }
                }
                if level.on_disk() {
                    ctx.telemetry.spill_read(read);
                }
                if !expanded {
                    break 'grab;
                }
            }
        }
    }
    out
}

fn level_bfs<TS, M>(
    config: &CheckerConfig,
    properties: &[Property<TS::State>],
    ts: &TS,
    threads: usize,
    mode: &M,
) -> Outcome<TS>
where
    TS: TransitionSystem,
    M: Mode<TS>,
{
    let start = Instant::now();
    let deadline = config.time_limit.map(|limit| start + limit);
    let telemetry = Telemetry::new(config);

    let mut seen: Vec<HashSet<M::Key, FxBuild>> =
        (0..NSHARDS).map(|_| HashSet::default()).collect();
    let mut claims: Vec<Mutex<HashMap<M::Key, Pending, FxBuild>>> =
        (0..NSHARDS).map(|_| Mutex::default()).collect();
    let pool: Pool<TS::State> = Pool::new();
    let mut parents = Links { blocks: Vec::new() };
    // State ids are `u32` and `Link::ROOT` is never assigned.
    let max_states = config.max_states.min(Link::ROOT as usize);
    let mut states_count: usize = 0;
    let mut transitions: usize = 0;

    // Seed level 0 with the deduplicated (canonical) initial states.
    let mut seed: Vec<TS::State> = Vec::new();
    let inits = ts.initial_states();
    assert!(inits.len() as u64 <= Link::AMPLE, "ordinals fit 31 bits");
    for (ord, init) in inits.into_iter().enumerate() {
        let init = canonical(ts, &config.reduction, init);
        let probe = mode.probe(&init);
        let shard = &mut seen[shard_of(M::route(probe))];
        if M::seen(shard, probe, &init) {
            continue;
        }
        shard.insert(M::key(probe, &init));
        parents.push(Link::new(Link::ROOT, false, ord));
        states_count += 1;
        seed.push(init);
    }
    // Whether the system has a codec, asked once: if so every level is
    // kept encoded, and may spill.
    let encoded = seed
        .first()
        .is_some_and(|init| ts.encode_state(init, &mut Vec::new()));
    let trace = |links: &Links, at: u32, state: TS::State| {
        rebuild_trace(ts, &config.reduction, links, at, state)
    };

    // Check properties on initial states.
    for (id, state) in seed.iter().enumerate() {
        if let Some(property) = first_violation(properties, state) {
            return Outcome::Violated {
                property,
                trace: trace(&parents, id as u32, state.clone()),
                stats: Stats {
                    states: states_count,
                    transitions,
                    depth: 0,
                },
            };
        }
    }
    let mut frontier = if encoded {
        let mut writer = LevelWriter::memory(0);
        let mut record = Vec::new();
        for init in &seed {
            record.clear();
            put_record(ts, init, &mut record);
            writer.push(&record);
        }
        Frontier::Encoded(writer.finish())
    } else {
        let mut arena = Arena::new();
        seed.iter().for_each(|init| arena.push(&pool, init));
        Frontier::States(Level {
            ids: (0..seed.len()).map(|index| At::new(0, index)).collect(),
            arenas: vec![arena],
        })
    };
    // Id of the frontier's position 0.
    let mut first_id: u32 = 0;
    telemetry.seeded(states_count);

    let mut level: usize = 0;
    let mut deepest: usize = 0;
    loop {
        if frontier.is_empty() {
            return Outcome::Verified(Stats {
                states: states_count,
                transitions,
                depth: deepest,
            });
        }
        deepest = level;
        let expanding = level < config.max_depth;
        telemetry.level_begin(level, frontier.len());
        gc_trace::emit(gc_trace::EventKind::LevelBegin {
            level: level as u32,
            frontier: frontier.len() as u64,
        });

        // -- Parallel phase: expand the frontier -------------------------
        let cursor = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let ctx = ExpandCtx {
            mode,
            ts,
            properties,
            seen: &seen,
            claims: &claims,
            pool: &pool,
            encoded,
            reduction: config.reduction,
            expanding,
            forbid_deadlock: config.forbid_deadlock,
            deadline,
            stop: &stop,
            telemetry: &telemetry,
        };
        let workers = threads.min(frontier.len().div_ceil(BLOCK)).max(1);
        let outs: Vec<WorkerOut<TS::State>> = if workers == 1 {
            vec![expand_blocks(&ctx, &frontier, &cursor, 0)]
        } else {
            std::thread::scope(|scope| {
                let (ctx, frontier, cursor) = (&ctx, &frontier, &cursor);
                let handles: Vec<_> = (0..workers)
                    .map(|w| scope.spawn(move || expand_blocks(ctx, frontier, cursor, w)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect()
            })
        };

        let mut deadlock: Option<u32> = None;
        let mut cutoff: Option<u32> = None;
        let mut arenas = Vec::with_capacity(outs.len());
        for out in outs {
            transitions += out.transitions;
            if let Some(p) = out.deadlock {
                min_pos(&mut deadlock, p);
            }
            if let Some(p) = out.cutoff {
                min_pos(&mut cutoff, p);
            }
            arenas.push(out.arena);
        }
        if stop.load(Ordering::Relaxed) {
            return Outcome::BoundReached {
                bound: Bound::Time(config.time_limit.expect("stop implies time limit")),
                stats: Stats {
                    states: states_count,
                    transitions,
                    depth: level,
                },
            };
        }

        // -- Deterministic drain: assign ids in sequential discovery order
        let claimed = claims
            .iter_mut()
            .map(|c| c.get_mut().expect("claims lock").len());
        let mut entries: Vec<(usize, M::Key, Pending)> = Vec::with_capacity(claimed.sum());
        for (idx, shard) in claims.iter_mut().enumerate() {
            let shard = shard.get_mut().expect("claims lock");
            entries.extend(shard.drain().map(|(k, p)| (idx, k, p)));
        }
        entries.sort_unstable_by_key(|(_, _, p)| p.order);

        // An encoded level spills when it exceeds the threshold; a system
        // without a codec keeps its states where they were claimed.
        let mut ids: Vec<At> = Vec::new();
        let mut writer = if !encoded {
            ids.reserve(entries.len());
            None
        } else if config.spill_threshold.is_some_and(|t| entries.len() > t) {
            Some(LevelWriter::spill().expect("create spill file"))
        } else {
            let bytes = arenas.iter().map(|arena| arena.records.len()).sum();
            Some(LevelWriter::memory(bytes))
        };
        for (shard_idx, key, pending) in entries {
            // Sequential semantics: a deadlocked state is reported when the
            // scan reaches its frontier position — after the insertions of
            // every earlier position, before those of later ones.
            if let Some(dpos) = deadlock {
                if dpos < (pending.order >> 32) as u32 {
                    let state = frontier.fetch(ts, dpos as usize);
                    return Outcome::Deadlock {
                        trace: trace(&parents, first_id + dpos, state),
                        stats: Stats {
                            states: states_count,
                            transitions,
                            depth: level,
                        },
                    };
                }
            }
            if states_count >= max_states {
                return Outcome::BoundReached {
                    bound: Bound::States(max_states),
                    stats: Stats {
                        states: states_count,
                        transitions,
                        depth: level,
                    },
                };
            }
            let id = states_count as u32;
            // The discovery order, rebased from frontier position to parent id.
            parents.push(Link(pending.order + (u64::from(first_id) << 32)));
            states_count += 1;
            let (arena, place) = (&arenas[pending.at.worker()], pending.at.place());
            if let Some(property) = arena.violation(place) {
                return Outcome::Violated {
                    property,
                    trace: trace(&parents, id, arena.state(ts, place, encoded)),
                    stats: Stats {
                        states: states_count,
                        transitions,
                        depth: level + 1,
                    },
                };
            }
            seen[shard_idx].insert(key);
            match &mut writer {
                Some(w) => w.push(arena.record(place)),
                None => ids.push(pending.at),
            }
        }

        // Deadlock / depth-bound events past the last insertion.
        match (deadlock, cutoff) {
            (Some(dpos), cpos) if cpos.is_none_or(|c| dpos < c) => {
                let state = frontier.fetch(ts, dpos as usize);
                return Outcome::Deadlock {
                    trace: trace(&parents, first_id + dpos, state),
                    stats: Stats {
                        states: states_count,
                        transitions,
                        depth: level,
                    },
                };
            }
            (_, Some(_)) => {
                return Outcome::BoundReached {
                    bound: Bound::Depth(config.max_depth),
                    stats: Stats {
                        states: states_count,
                        transitions,
                        depth: level,
                    },
                };
            }
            _ => {}
        }

        // Level completed without a verdict: report its shape. Tracing and
        // telemetry are observation only — they never influence exploration
        // order, so the deterministic-drain guarantee is untouched.
        let discovered = writer.as_ref().map_or(ids.len(), |w| w.len) as u64;
        gc_trace::emit(gc_trace::EventKind::LevelEnd {
            level: level as u32,
            discovered,
            states_total: states_count as u64,
        });
        let spilled_bytes = writer.as_ref().map_or(0, LevelWriter::spilled);
        let next = match writer {
            Some(w) => {
                arenas.into_iter().for_each(|arena| pool.give(arena));
                Frontier::Encoded(w.finish())
            }
            None => Frontier::States(Level { arenas, ids }),
        };
        first_id += frontier.len() as u32;
        std::mem::replace(&mut frontier, next).retire(&pool);

        let mut occ_max = 0u64;
        let mut occ_total = 0u64;
        let mut seen_buckets = 0;
        for shard in &seen {
            let n = shard.len() as u64;
            occ_max = occ_max.max(n);
            occ_total += n;
            seen_buckets += shard.capacity();
        }
        telemetry.level_done(
            states_count,
            spilled_bytes,
            Retained {
                links: parents.blocks.len() * Links::BLOCK * size_of::<Link>(),
                // A bucket is the key and one control byte.
                seen_set: seen_buckets * (size_of::<M::Key>() + 1),
                frontier: pool.bytes() + frontier.buffer_bytes(),
            },
        );
        gc_trace::emit(gc_trace::EventKind::ShardOccupancy {
            max: occ_max,
            total: occ_total,
        });
        level += 1;
    }
}
