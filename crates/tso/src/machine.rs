//! The x86-TSO abstract machine.

use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;

/// Identifier of a hardware thread in a [`Machine`].
///
/// Thread ids are dense indices `0..n` where `n` is the thread count the
/// machine was created with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(usize);

impl ThreadId {
    /// Creates a thread id from its index.
    pub fn new(index: usize) -> Self {
        ThreadId(index)
    }

    /// Returns the underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Which consistency model the machine exhibits.
///
/// The garbage collector paper verifies against [`MemoryModel::Tso`];
/// [`MemoryModel::Sc`] is provided for the SC-vs-TSO ablation experiments
/// (writes take effect immediately, store buffers stay empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemoryModel {
    /// Total store order: writes are buffered per thread and committed
    /// asynchronously in FIFO order.
    #[default]
    Tso,
    /// Sequential consistency: writes are applied to shared memory
    /// immediately; store buffers are always empty.
    Sc,
}

/// Errors returned by [`Machine`] operations whose x86-TSO enabling
/// condition does not hold.
///
/// In an operational exploration (model checking) these are not failures but
/// "transition not enabled" signals; a scheduler simply does not select the
/// corresponding step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsoError {
    /// The thread is blocked because another thread holds the bus lock.
    Blocked {
        /// The blocked thread.
        thread: ThreadId,
        /// The lock holder.
        holder: ThreadId,
    },
    /// A `lock` was attempted while the bus lock is already held.
    LockHeld {
        /// The current holder.
        holder: ThreadId,
    },
    /// An `unlock` was attempted by a thread that does not hold the lock.
    NotLockOwner {
        /// The thread attempting the unlock.
        thread: ThreadId,
    },
    /// An `mfence` or `unlock` was attempted while the thread's store buffer
    /// still contains pending writes.
    BufferNotEmpty {
        /// The thread whose buffer is non-empty.
        thread: ThreadId,
        /// Number of pending writes.
        pending: usize,
    },
    /// A `write` was attempted while the thread's store buffer is full.
    BufferFull {
        /// The thread whose buffer is full.
        thread: ThreadId,
    },
    /// A `commit` was attempted on an empty store buffer.
    NoPendingWrites {
        /// The thread with the empty buffer.
        thread: ThreadId,
    },
    /// A thread id out of range for this machine.
    UnknownThread {
        /// The offending id.
        thread: ThreadId,
        /// Number of threads in the machine.
        threads: usize,
    },
}

impl fmt::Display for TsoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TsoError::Blocked { thread, holder } => {
                write!(f, "{thread} is blocked: bus lock held by {holder}")
            }
            TsoError::LockHeld { holder } => {
                write!(f, "bus lock already held by {holder}")
            }
            TsoError::NotLockOwner { thread } => {
                write!(f, "{thread} does not hold the bus lock")
            }
            TsoError::BufferNotEmpty { thread, pending } => {
                write!(f, "store buffer of {thread} has {pending} pending write(s)")
            }
            TsoError::BufferFull { thread } => {
                write!(f, "store buffer of {thread} is full")
            }
            TsoError::NoPendingWrites { thread } => {
                write!(f, "store buffer of {thread} is empty")
            }
            TsoError::UnknownThread { thread, threads } => {
                write!(
                    f,
                    "{thread} out of range for machine with {threads} thread(s)"
                )
            }
        }
    }
}

impl Error for TsoError {}

/// Hardware threads a [`Machine`] can have.
pub const MAX_THREADS: usize = 8;
/// Pending writes one [`StoreBuffer`] can hold.
pub const BUFFER_CAPACITY: usize = 8;
/// Mapped locations the shared memory of a [`Machine`] can hold.
pub const MEMORY_CELLS: usize = 32;
/// An address or a value the machine keeps in its inline tables: anything
/// that round-trips through one byte.
///
/// The machine stores bytes, never `A` or `V` themselves, so a whole
/// machine is a few dozen bytes of plain data: copying one is a `memcpy`
/// and hashing one reads what is already there. Shared
/// memory is kept in ascending order of the addresses' bytes, which is the
/// order [`Machine::memory_iter`] yields.
pub trait Cell: Copy {
    /// The byte standing for `self`; distinct values have distinct bytes.
    fn to_byte(self) -> u8;
    /// The value `byte` stands for. Only called on bytes `to_byte` made.
    fn from_byte(byte: u8) -> Self;
}

impl Cell for u8 {
    fn to_byte(self) -> u8 {
        self
    }

    fn from_byte(byte: u8) -> Self {
        byte
    }
}

/// A per-thread FIFO store buffer: the sequence of writes issued by the
/// thread that have not yet reached shared memory, oldest first. Holds at
/// most [`BUFFER_CAPACITY`] writes, inline.
pub struct StoreBuffer<A, V> {
    len: u8,
    /// `(address, value)` byte pairs, oldest first; only the first `len`
    /// pairs are meaningful.
    pairs: [u8; 2 * BUFFER_CAPACITY],
    cells: PhantomData<fn() -> (A, V)>,
}

impl<A, V> Clone for StoreBuffer<A, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<A, V> Copy for StoreBuffer<A, V> {}

impl<A, V> Default for StoreBuffer<A, V> {
    fn default() -> Self {
        StoreBuffer {
            len: 0,
            pairs: [0; 2 * BUFFER_CAPACITY],
            cells: PhantomData,
        }
    }
}

impl<A, V> StoreBuffer<A, V> {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        StoreBuffer::default()
    }

    /// Number of pending writes.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the buffer holds no pending writes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pending writes as `(address, value)` byte pairs, oldest first.
    fn live(&self) -> &[u8] {
        &self.pairs[..2 * self.len()]
    }

    fn push(&mut self, addr: u8, value: u8) {
        let at = 2 * self.len();
        self.pairs[at] = addr;
        self.pairs[at + 1] = value;
        self.len += 1;
    }

    fn pop(&mut self) -> Option<(u8, u8)> {
        if self.len == 0 {
            return None;
        }
        let oldest = (self.pairs[0], self.pairs[1]);
        let end = 2 * self.len();
        self.pairs.copy_within(2..end, 0);
        self.len -= 1;
        Some(oldest)
    }

    /// Coalesces *adjacent duplicate* pending writes — consecutive entries
    /// with the same address **and** the same value — keeping one copy.
    /// Returns the number of entries removed.
    ///
    /// This is the only buffer normalization that is observationally sound
    /// in general: committing the first of two identical adjacent writes
    /// leaves every subsequent memory state, every same-thread forwarded
    /// read and every other-thread read exactly as committing the
    /// coalesced single write would. (Coalescing *shadowed* writes to the
    /// same address with different values is **unsound**: the intermediate
    /// value becomes globally visible when the older write commits.)
    pub fn coalesce_adjacent_duplicates(&mut self) -> usize {
        let before = self.len();
        let mut kept = 0;
        for i in 0..before {
            let pair = [self.pairs[2 * i], self.pairs[2 * i + 1]];
            if kept > 0 && self.pairs[2 * kept - 2..2 * kept] == pair {
                continue;
            }
            self.pairs[2 * kept..2 * kept + 2].copy_from_slice(&pair);
            kept += 1;
        }
        self.len = kept as u8;
        before - kept
    }
}

impl<A: Cell, V: Cell> StoreBuffer<A, V> {
    /// Iterates over pending writes, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (A, V)> + '_ {
        self.live()
            .chunks_exact(2)
            .map(|pair| (A::from_byte(pair[0]), V::from_byte(pair[1])))
    }

    /// The newest pending value for `addr`, if any — the value a load by the
    /// owning thread forwards from the buffer.
    pub fn newest(&self, addr: &A) -> Option<V> {
        let addr = addr.to_byte();
        self.live()
            .chunks_exact(2)
            .rev()
            .find(|pair| pair[0] == addr)
            .map(|pair| V::from_byte(pair[1]))
    }
}

impl<A, V> PartialEq for StoreBuffer<A, V> {
    fn eq(&self, other: &Self) -> bool {
        self.live() == other.live()
    }
}

impl<A, V> Eq for StoreBuffer<A, V> {}

impl<A: Cell + fmt::Debug, V: Cell + fmt::Debug> fmt::Debug for StoreBuffer<A, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The x86-TSO abstract machine: shared memory, per-thread store buffers and
/// the global bus lock.
///
/// The whole machine is inline and `Copy`: shared memory is a table of at
/// most [`MEMORY_CELLS`] `(address, value)` byte pairs sorted by address,
/// and each of at most [`MAX_THREADS`] threads has a [`StoreBuffer`] of
/// [`BUFFER_CAPACITY`]. Equality and hashing read the live prefix of each
/// table and nothing else, so two machines are
/// equal exactly when they were driven to the same contents, whatever was
/// written and popped on the way.
///
/// The transition rules follow Sewell et al. exactly:
///
/// | step        | enabling condition                          | effect |
/// |-------------|---------------------------------------------|--------|
/// | [`read`]    | `not_blocked(t)`                            | newest buffered write to the address, else shared memory |
/// | [`write`]   | buffer of `t` not full                      | enqueue on `t`'s buffer (TSO) or apply directly (SC) |
/// | [`commit`]  | `not_blocked(t)` ∧ buffer non-empty         | dequeue oldest write, apply to memory |
/// | [`mfence`]  | buffer of `t` empty                         | no-op (the condition *is* the fence) |
/// | [`lock`]    | bus lock free                               | `t` takes the lock |
/// | [`unlock`]  | `t` holds the lock ∧ buffer of `t` empty    | release the lock |
///
/// where `not_blocked(t)` holds iff the bus lock is free or held by `t`.
///
/// [`read`]: Machine::read
/// [`write`]: Machine::write
/// [`commit`]: Machine::commit
/// [`mfence`]: Machine::mfence
/// [`lock`]: Machine::lock
/// [`unlock`]: Machine::unlock
pub struct Machine<A, V> {
    model: MemoryModel,
    threads: u8,
    lock: Option<ThreadId>,
    cells: u8,
    /// `(address, value)` byte pairs in ascending address order; only the
    /// first `cells` pairs are meaningful.
    memory: [u8; 2 * MEMORY_CELLS],
    buffers: [StoreBuffer<A, V>; MAX_THREADS],
}

impl<A, V> Clone for Machine<A, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<A, V> Copy for Machine<A, V> {}

impl<A, V> Machine<A, V> {
    /// The number of hardware threads.
    pub fn threads(&self) -> usize {
        usize::from(self.threads)
    }

    /// The consistency model this machine runs under.
    pub fn model(&self) -> MemoryModel {
        self.model
    }

    /// The current bus lock holder, if any.
    pub fn lock_holder(&self) -> Option<ThreadId> {
        self.lock
    }

    /// Whether `thread` may perform memory reads and buffer commits: the bus
    /// lock is free or held by `thread` itself.
    pub fn not_blocked(&self, thread: ThreadId) -> bool {
        self.lock.is_none() || self.lock == Some(thread)
    }

    /// The store buffer of `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn buffer(&self, thread: ThreadId) -> &StoreBuffer<A, V> {
        &self.buffers[..self.threads()][thread.0]
    }

    /// Threads whose store buffers are non-empty, i.e. that have a `commit`
    /// step enabled (modulo blocking).
    pub fn threads_with_pending(&self) -> impl Iterator<Item = ThreadId> + '_ {
        self.buffers[..self.threads()]
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(i, _)| ThreadId(i))
    }

    /// The mapped locations as `(address, value)` byte pairs.
    fn live_memory(&self) -> &[u8] {
        &self.memory[..2 * usize::from(self.cells)]
    }

    /// Where `addr` is in the memory table, or where it would be inserted.
    fn find(&self, addr: u8) -> Result<usize, usize> {
        for (i, pair) in self.live_memory().chunks_exact(2).enumerate() {
            if pair[0] >= addr {
                return if pair[0] == addr { Ok(i) } else { Err(i) };
            }
        }
        Err(usize::from(self.cells))
    }

    fn store(&mut self, addr: u8, value: u8) {
        match self.find(addr) {
            Ok(i) => self.memory[2 * i + 1] = value,
            Err(i) => {
                let end = 2 * usize::from(self.cells);
                assert!(
                    end < self.memory.len(),
                    "machine memory holds at most {MEMORY_CELLS} locations"
                );
                self.memory.copy_within(2 * i..end, 2 * i + 2);
                self.memory[2 * i] = addr;
                self.memory[2 * i + 1] = value;
                self.cells += 1;
            }
        }
    }

    fn check_thread(&self, thread: ThreadId) -> Result<(), TsoError> {
        if thread.0 < self.threads() {
            Ok(())
        } else {
            Err(TsoError::UnknownThread {
                thread,
                threads: self.threads(),
            })
        }
    }

    fn check_not_blocked(&self, thread: ThreadId) -> Result<(), TsoError> {
        match self.lock {
            Some(holder) if holder != thread => Err(TsoError::Blocked { thread, holder }),
            _ => Ok(()),
        }
    }

    /// An `MFENCE` by `thread`: enabled only when the thread's store buffer
    /// is empty. The step itself has no effect — waiting for the enabling
    /// condition is what flushes.
    ///
    /// # Errors
    ///
    /// [`TsoError::BufferNotEmpty`] if writes are still pending.
    pub fn mfence(&self, thread: ThreadId) -> Result<(), TsoError> {
        self.check_thread(thread)?;
        let pending = self.buffers[thread.0].len();
        if pending == 0 {
            Ok(())
        } else {
            Err(TsoError::BufferNotEmpty { thread, pending })
        }
    }

    /// Whether an `mfence` step by `thread` is currently enabled.
    pub fn can_mfence(&self, thread: ThreadId) -> bool {
        self.mfence(thread).is_ok()
    }

    /// Takes the bus lock for `thread` (the start of a locked instruction).
    ///
    /// # Errors
    ///
    /// [`TsoError::LockHeld`] if any thread (including `thread`) already
    /// holds the lock — the model's lock is not re-entrant.
    pub fn lock(&mut self, thread: ThreadId) -> Result<(), TsoError> {
        self.check_thread(thread)?;
        if let Some(holder) = self.lock {
            return Err(TsoError::LockHeld { holder });
        }
        self.lock = Some(thread);
        Ok(())
    }

    /// Releases the bus lock (the end of a locked instruction). Enabled only
    /// when `thread`'s store buffer is empty, which forces the locked
    /// instruction's writes to be globally visible before it completes.
    ///
    /// # Errors
    ///
    /// [`TsoError::NotLockOwner`] if `thread` does not hold the lock, or
    /// [`TsoError::BufferNotEmpty`] if writes are still pending.
    pub fn unlock(&mut self, thread: ThreadId) -> Result<(), TsoError> {
        self.check_thread(thread)?;
        if self.lock != Some(thread) {
            return Err(TsoError::NotLockOwner { thread });
        }
        let pending = self.buffers[thread.0].len();
        if pending != 0 {
            return Err(TsoError::BufferNotEmpty { thread, pending });
        }
        self.lock = None;
        Ok(())
    }

    /// Canonicalizes every store buffer by coalescing adjacent duplicate
    /// pending writes (see [`StoreBuffer::coalesce_adjacent_duplicates`]).
    /// Returns the total number of entries removed. Observationally
    /// equivalent machine states then hash identically.
    pub fn canonicalize_buffers(&mut self) -> usize {
        self.buffers[..usize::from(self.threads)]
            .iter_mut()
            .map(|b| b.coalesce_adjacent_duplicates())
            .sum()
    }

    /// Permutes the hardware threads: after the call, thread `new` owns
    /// what thread `map[new]` owned before (store buffer and, if it held
    /// it, the bus lock). Shared memory is untouched. Used by symmetry
    /// reduction to canonicalize states under permutations of identical
    /// threads.
    ///
    /// # Panics
    ///
    /// Panics if `map` is not a permutation of `0..self.threads()`.
    pub fn permute_threads(&mut self, map: &[usize]) {
        assert_eq!(map.len(), self.threads(), "permutation arity");
        let old = self.buffers;
        let mut seen = 0u8;
        for (new, &from) in map.iter().enumerate() {
            assert!(
                from < map.len() && seen & (1 << from) == 0,
                "not a permutation"
            );
            seen |= 1 << from;
            self.buffers[new] = old[from];
        }
        if let Some(holder) = self.lock {
            let new = map
                .iter()
                .position(|&from| from == holder.0)
                .expect("lock holder survives permutation");
            self.lock = Some(ThreadId(new));
        }
    }
}

impl<A: Cell, V: Cell> Machine<A, V> {
    /// Creates a machine with `threads` hardware threads, empty memory,
    /// empty store buffers and the bus lock free.
    ///
    /// # Panics
    ///
    /// Panics if `threads` exceeds [`MAX_THREADS`].
    pub fn new(threads: usize, model: MemoryModel) -> Self {
        assert!(
            threads <= MAX_THREADS,
            "a machine has at most {MAX_THREADS} hardware threads"
        );
        Machine {
            model,
            threads: threads as u8,
            lock: None,
            cells: 0,
            memory: [0; 2 * MEMORY_CELLS],
            buffers: [StoreBuffer::new(); MAX_THREADS],
        }
    }

    /// Direct, un-modelled access to shared memory (no buffer forwarding).
    ///
    /// This is the "omniscient" view used by invariant checkers; program
    /// steps must use [`Machine::read`].
    pub fn memory(&self, addr: &A) -> Option<V> {
        let i = self.find(addr.to_byte()).ok()?;
        Some(V::from_byte(self.memory[2 * i + 1]))
    }

    /// Iterates over the shared memory contents in address order.
    pub fn memory_iter(&self) -> impl Iterator<Item = (A, V)> + '_ {
        self.live_memory()
            .chunks_exact(2)
            .map(|pair| (A::from_byte(pair[0]), V::from_byte(pair[1])))
    }

    /// Sets the initial contents of `addr` directly in shared memory,
    /// bypassing the store buffers. Intended for test/benchmark setup.
    ///
    /// # Panics
    ///
    /// Panics if this would map more than [`MEMORY_CELLS`] locations (as do
    /// [`write`](Machine::write) under SC and [`commit`](Machine::commit)).
    pub fn initialize(&mut self, addr: A, value: V) {
        self.store(addr.to_byte(), value.to_byte());
    }

    /// Removes `addr` from shared memory (used to model freeing a heap
    /// cell). Pending buffered writes to `addr` are *not* removed: a write
    /// committed after the removal re-creates the location, exactly as a
    /// buffered store to freed memory would on hardware. Returns the removed
    /// value.
    pub fn remove(&mut self, addr: &A) -> Option<V> {
        let i = self.find(addr.to_byte()).ok()?;
        let value = V::from_byte(self.memory[2 * i + 1]);
        let end = 2 * usize::from(self.cells);
        self.memory.copy_within(2 * i + 2..end, 2 * i);
        self.cells -= 1;
        Some(value)
    }

    /// Performs a load of `addr` by `thread`.
    ///
    /// The newest write to `addr` pending in `thread`'s own store buffer is
    /// forwarded if present; otherwise shared memory is consulted. Returns
    /// `None` if the location has never been written (or has been
    /// [`remove`](Machine::remove)d and not re-written).
    ///
    /// # Errors
    ///
    /// [`TsoError::Blocked`] if another thread holds the bus lock.
    pub fn read(&self, thread: ThreadId, addr: &A) -> Result<Option<V>, TsoError> {
        self.check_thread(thread)?;
        self.check_not_blocked(thread)?;
        Ok(self.buffers[thread.0]
            .newest(addr)
            .or_else(|| self.memory(addr)))
    }

    /// Performs a store of `value` to `addr` by `thread`.
    ///
    /// Under TSO the write is enqueued on `thread`'s store buffer; it reaches
    /// shared memory only via a later [`commit`](Machine::commit). Under SC
    /// it is applied immediately. Enqueuing is permitted even while another
    /// thread holds the bus lock (the buffer is thread-private).
    ///
    /// # Errors
    ///
    /// [`TsoError::UnknownThread`] if `thread` is out of range, or
    /// [`TsoError::BufferFull`] if the buffer already holds
    /// [`BUFFER_CAPACITY`] writes: hardware buffers are finite, and a store
    /// is not schedulable until a commit makes room.
    pub fn write(&mut self, thread: ThreadId, addr: A, value: V) -> Result<(), TsoError> {
        self.check_thread(thread)?;
        match self.model {
            MemoryModel::Tso => {
                let buffer = &mut self.buffers[thread.0];
                if buffer.len() == BUFFER_CAPACITY {
                    return Err(TsoError::BufferFull { thread });
                }
                buffer.push(addr.to_byte(), value.to_byte());
            }
            MemoryModel::Sc => self.store(addr.to_byte(), value.to_byte()),
        }
        Ok(())
    }

    /// Commits the oldest pending write of `thread` to shared memory and
    /// returns it. This is the machine's only internal (scheduler-chosen)
    /// step.
    ///
    /// # Errors
    ///
    /// [`TsoError::Blocked`] if another thread holds the bus lock, or
    /// [`TsoError::NoPendingWrites`] if the buffer is empty.
    pub fn commit(&mut self, thread: ThreadId) -> Result<(A, V), TsoError> {
        self.check_thread(thread)?;
        self.check_not_blocked(thread)?;
        let (addr, value) = self.buffers[thread.0]
            .pop()
            .ok_or(TsoError::NoPendingWrites { thread })?;
        self.store(addr, value);
        Ok((A::from_byte(addr), V::from_byte(value)))
    }

    /// Commits every pending write of `thread`, oldest first, returning how
    /// many writes were flushed. A convenience for direct execution; in an
    /// exploration each [`commit`](Machine::commit) is a separate transition.
    ///
    /// # Errors
    ///
    /// [`TsoError::Blocked`] if another thread holds the bus lock.
    pub fn flush(&mut self, thread: ThreadId) -> Result<usize, TsoError> {
        self.check_thread(thread)?;
        self.check_not_blocked(thread)?;
        let mut n = 0;
        while !self.buffers[thread.0].is_empty() {
            self.commit(thread)?;
            n += 1;
        }
        Ok(n)
    }

    /// Executes an atomic compare-and-swap as a single composite step:
    /// lock, flush, read, conditional write, flush, unlock — the
    /// coarse-grained view of x86 `LOCK CMPXCHG` used for direct execution.
    /// (The garbage collector *model* performs the fine-grained sub-steps
    /// individually so that interleavings inside the CAS window are
    /// explored.)
    ///
    /// Returns `true` (the caller "wins") iff the current value equalled
    /// `expected` and the swap was performed.
    ///
    /// # Errors
    ///
    /// [`TsoError::LockHeld`] if the bus lock is taken, or
    /// [`TsoError::Blocked`] if the flush is blocked (impossible once the
    /// lock is acquired; listed for completeness).
    pub fn locked_cmpxchg(
        &mut self,
        thread: ThreadId,
        addr: A,
        expected: &V,
        new: V,
    ) -> Result<bool, TsoError> {
        self.lock(thread)?;
        self.flush(thread)?;
        let current = self.read(thread, &addr)?;
        let won = current.map(Cell::to_byte) == Some(expected.to_byte());
        if won {
            self.write(thread, addr, new)?;
        }
        self.flush(thread)?;
        self.unlock(thread)?;
        Ok(won)
    }
}

impl<A, V> PartialEq for Machine<A, V> {
    fn eq(&self, other: &Self) -> bool {
        (self.model, self.threads, self.lock) == (other.model, other.threads, other.lock)
            && self.live_memory() == other.live_memory()
            && self.buffers[..self.threads()] == other.buffers[..other.threads()]
    }
}

impl<A, V> Eq for Machine<A, V> {}

// Every buffer length fits the four bits the hash's header word gives it.
const _: () = assert!(BUFFER_CAPACITY < 16 && 4 * MAX_THREADS <= 32);

impl<A, V> Hash for Machine<A, V> {
    /// Feeds one header word — model, thread count, lock holder and memory
    /// cells in the low four bytes, each thread's buffer length in four bits
    /// of the high four — and then the live memory table and each non-empty
    /// buffer as `u64` words, each table's last word zero-padded (the
    /// header's lengths make the padding unambiguous). Nothing is copied
    /// out first.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let lock = self.lock.map_or(0, |t| 1 + t.0 as u8);
        let low = [self.model as u8, self.threads, lock, self.cells];
        let buffers = &self.buffers[..self.threads()];
        let lens = buffers.iter().enumerate();
        let high = lens.fold(0, |word, (t, b)| word | u32::from(b.len) << (4 * t));
        state.write_u64(u64::from(u32::from_le_bytes(low)) | u64::from(high) << 32);
        write_words(state, self.live_memory());
        for buffer in buffers {
            write_words(state, buffer.live());
        }
    }
}

/// Feeds `bytes` to `state` as little-endian `u64` words, the last one
/// zero-padded; nothing for no bytes.
fn write_words<H: Hasher>(state: &mut H, bytes: &[u8]) {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        state.write_u64(u64::from_le_bytes(word.try_into().expect("eight bytes")));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        state.write_u64(
            rest.iter()
                .rev()
                .fold(0, |word, &b| word << 8 | u64::from(b)),
        );
    }
}

impl<A: Cell + fmt::Debug, V: Cell + fmt::Debug> fmt::Debug for Machine<A, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Memory<'a, A, V>(&'a Machine<A, V>);
        impl<A: Cell + fmt::Debug, V: Cell + fmt::Debug> fmt::Debug for Memory<'_, A, V> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.memory_iter()).finish()
            }
        }
        f.debug_struct("Machine")
            .field("memory", &Memory(self))
            .field("buffers", &&self.buffers[..self.threads()])
            .field("lock", &self.lock)
            .field("model", &self.model)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> ThreadId {
        ThreadId::new(i)
    }

    const X: u8 = 10;
    const Y: u8 = 20;

    fn machine(model: MemoryModel) -> Machine<u8, u8> {
        let mut m = Machine::new(2, model);
        m.initialize(X, 0);
        m.initialize(Y, 0);
        m
    }

    #[test]
    fn writes_buffer_under_tso() {
        let mut m = machine(MemoryModel::Tso);
        m.write(t(0), X, 1).unwrap();
        assert_eq!(m.memory(&X), Some(0));
        assert_eq!(m.buffer(t(0)).len(), 1);
    }

    #[test]
    fn writes_apply_immediately_under_sc() {
        let mut m = machine(MemoryModel::Sc);
        m.write(t(0), X, 1).unwrap();
        assert_eq!(m.memory(&X), Some(1));
        assert!(m.buffer(t(0)).is_empty());
    }

    #[test]
    fn read_forwards_newest_own_store() {
        let mut m = machine(MemoryModel::Tso);
        m.write(t(0), X, 1).unwrap();
        m.write(t(0), X, 2).unwrap();
        assert_eq!(m.read(t(0), &X).unwrap(), Some(2));
        // The other thread still sees memory.
        assert_eq!(m.read(t(1), &X).unwrap(), Some(0));
    }

    #[test]
    fn commit_is_fifo() {
        let mut m = machine(MemoryModel::Tso);
        m.write(t(0), X, 1).unwrap();
        m.write(t(0), Y, 2).unwrap();
        assert_eq!(m.commit(t(0)).unwrap(), (X, 1));
        assert_eq!(m.memory(&X), Some(1));
        assert_eq!(m.memory(&Y), Some(0));
        assert_eq!(m.commit(t(0)).unwrap(), (Y, 2));
        assert_eq!(m.memory(&Y), Some(2));
    }

    #[test]
    fn commit_empty_buffer_is_disabled() {
        let mut m = machine(MemoryModel::Tso);
        assert_eq!(
            m.commit(t(0)),
            Err(TsoError::NoPendingWrites { thread: t(0) })
        );
    }

    #[test]
    fn mfence_requires_empty_buffer() {
        let mut m = machine(MemoryModel::Tso);
        assert!(m.can_mfence(t(0)));
        m.write(t(0), X, 1).unwrap();
        assert_eq!(
            m.mfence(t(0)),
            Err(TsoError::BufferNotEmpty {
                thread: t(0),
                pending: 1
            })
        );
        m.commit(t(0)).unwrap();
        assert!(m.can_mfence(t(0)));
    }

    #[test]
    fn lock_blocks_other_reads_and_commits_but_not_writes() {
        let mut m = machine(MemoryModel::Tso);
        m.write(t(1), Y, 7).unwrap();
        m.lock(t(0)).unwrap();
        assert_eq!(
            m.read(t(1), &X),
            Err(TsoError::Blocked {
                thread: t(1),
                holder: t(0)
            })
        );
        assert_eq!(
            m.commit(t(1)),
            Err(TsoError::Blocked {
                thread: t(1),
                holder: t(0)
            })
        );
        // Writes still enqueue while blocked.
        m.write(t(1), Y, 8).unwrap();
        assert_eq!(m.buffer(t(1)).len(), 2);
        // The lock holder itself is unimpeded.
        assert_eq!(m.read(t(0), &X).unwrap(), Some(0));
        m.unlock(t(0)).unwrap();
        assert_eq!(m.read(t(1), &X).unwrap(), Some(0));
    }

    #[test]
    fn lock_is_exclusive_and_unlock_checks_owner() {
        let mut m = machine(MemoryModel::Tso);
        m.lock(t(0)).unwrap();
        assert_eq!(m.lock(t(1)), Err(TsoError::LockHeld { holder: t(0) }));
        assert_eq!(m.unlock(t(1)), Err(TsoError::NotLockOwner { thread: t(1) }));
        m.unlock(t(0)).unwrap();
        assert_eq!(m.lock_holder(), None);
    }

    #[test]
    fn unlock_requires_drained_buffer() {
        let mut m = machine(MemoryModel::Tso);
        m.lock(t(0)).unwrap();
        m.write(t(0), X, 1).unwrap();
        assert_eq!(
            m.unlock(t(0)),
            Err(TsoError::BufferNotEmpty {
                thread: t(0),
                pending: 1
            })
        );
        m.flush(t(0)).unwrap();
        m.unlock(t(0)).unwrap();
    }

    #[test]
    fn cmpxchg_succeeds_once_per_value() {
        let mut m = machine(MemoryModel::Tso);
        assert!(m.locked_cmpxchg(t(0), X, &0, 1).unwrap());
        // Second CAS with the stale expectation fails...
        assert!(!m.locked_cmpxchg(t(1), X, &0, 2).unwrap());
        // ...and the failed CAS did not write.
        assert_eq!(m.memory(&X), Some(1));
        // The lock is free afterwards either way.
        assert_eq!(m.lock_holder(), None);
    }

    #[test]
    fn cmpxchg_flushes_pending_writes_first() {
        let mut m = machine(MemoryModel::Tso);
        m.write(t(0), Y, 9).unwrap();
        assert!(m.locked_cmpxchg(t(0), X, &0, 1).unwrap());
        // The unrelated pending write was forced to memory by the lock.
        assert_eq!(m.memory(&Y), Some(9));
        assert!(m.buffer(t(0)).is_empty());
    }

    #[test]
    fn remove_leaves_buffered_writes() {
        let mut m = machine(MemoryModel::Tso);
        m.write(t(0), X, 5).unwrap();
        assert_eq!(m.remove(&X), Some(0));
        assert_eq!(m.memory(&X), None);
        // The stale buffered store re-creates the location when it commits —
        // exactly the hazard the collector's sweep must be safe against.
        m.commit(t(0)).unwrap();
        assert_eq!(m.memory(&X), Some(5));
    }

    #[test]
    fn threads_with_pending_reports_nonempty_buffers() {
        let mut m = machine(MemoryModel::Tso);
        m.write(t(1), Y, 1).unwrap();
        let pend: Vec<_> = m.threads_with_pending().collect();
        assert_eq!(pend, vec![t(1)]);
    }

    #[test]
    fn unknown_thread_is_rejected() {
        let m = machine(MemoryModel::Tso);
        assert_eq!(
            m.read(t(9), &X),
            Err(TsoError::UnknownThread {
                thread: t(9),
                threads: 2
            })
        );
    }

    #[test]
    fn machine_states_hash_and_compare() {
        use std::collections::HashSet;
        let mut a = machine(MemoryModel::Tso);
        let b = a;
        assert_eq!(a, b);
        a.write(t(0), X, 1).unwrap();
        assert_ne!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        set.insert(b);
        assert_eq!(set.len(), 2);
        set.insert(a);
        assert_eq!(set.len(), 2);
    }

    /// The machine as it was before it was packed: a `BTreeMap` memory and
    /// `VecDeque` buffers. Kept as the reference the inline one is driven
    /// against.
    mod reference {
        use std::collections::{BTreeMap, VecDeque};

        use super::super::*;

        #[derive(Debug, Clone)]
        pub struct Machine {
            pub memory: BTreeMap<u8, u8>,
            pub buffers: Vec<VecDeque<(u8, u8)>>,
            pub lock: Option<ThreadId>,
            pub model: MemoryModel,
        }

        impl Machine {
            pub fn new(threads: usize, model: MemoryModel) -> Self {
                Machine {
                    memory: BTreeMap::new(),
                    buffers: vec![VecDeque::new(); threads],
                    lock: None,
                    model,
                }
            }

            fn check(&self, thread: ThreadId, needs_bus: bool) -> Result<(), TsoError> {
                if thread.0 >= self.buffers.len() {
                    return Err(TsoError::UnknownThread {
                        thread,
                        threads: self.buffers.len(),
                    });
                }
                match self.lock {
                    Some(holder) if needs_bus && holder != thread => {
                        Err(TsoError::Blocked { thread, holder })
                    }
                    _ => Ok(()),
                }
            }

            pub fn read(&self, thread: ThreadId, addr: u8) -> Result<Option<u8>, TsoError> {
                self.check(thread, true)?;
                let forwarded = self.buffers[thread.0].iter().rev().find(|e| e.0 == addr);
                Ok(forwarded.map(|e| e.1).or(self.memory.get(&addr).copied()))
            }

            pub fn write(&mut self, thread: ThreadId, addr: u8, value: u8) -> Result<(), TsoError> {
                self.check(thread, false)?;
                match self.model {
                    MemoryModel::Tso if self.buffers[thread.0].len() == BUFFER_CAPACITY => {
                        return Err(TsoError::BufferFull { thread });
                    }
                    MemoryModel::Tso => self.buffers[thread.0].push_back((addr, value)),
                    MemoryModel::Sc => {
                        self.memory.insert(addr, value);
                    }
                }
                Ok(())
            }

            pub fn commit(&mut self, thread: ThreadId) -> Result<(u8, u8), TsoError> {
                self.check(thread, true)?;
                let (addr, value) = self.buffers[thread.0]
                    .pop_front()
                    .ok_or(TsoError::NoPendingWrites { thread })?;
                self.memory.insert(addr, value);
                Ok((addr, value))
            }

            pub fn mfence(&self, thread: ThreadId) -> Result<(), TsoError> {
                self.check(thread, false)?;
                match self.buffers[thread.0].len() {
                    0 => Ok(()),
                    pending => Err(TsoError::BufferNotEmpty { thread, pending }),
                }
            }

            pub fn lock(&mut self, thread: ThreadId) -> Result<(), TsoError> {
                self.check(thread, false)?;
                if let Some(holder) = self.lock {
                    return Err(TsoError::LockHeld { holder });
                }
                self.lock = Some(thread);
                Ok(())
            }

            pub fn unlock(&mut self, thread: ThreadId) -> Result<(), TsoError> {
                self.check(thread, false)?;
                if self.lock != Some(thread) {
                    return Err(TsoError::NotLockOwner { thread });
                }
                self.mfence(thread)?;
                self.lock = None;
                Ok(())
            }

            pub fn canonicalize_buffers(&mut self) -> usize {
                let before: usize = self.buffers.iter().map(VecDeque::len).sum();
                for buffer in &mut self.buffers {
                    let mut kept: Vec<(u8, u8)> = buffer.drain(..).collect();
                    kept.dedup();
                    buffer.extend(kept);
                }
                before - self.buffers.iter().map(VecDeque::len).sum::<usize>()
            }

            pub fn permute_threads(&mut self, map: &[usize]) {
                let old = self.buffers.clone();
                for (new, &from) in map.iter().enumerate() {
                    self.buffers[new] = old[from].clone();
                }
                self.lock = self
                    .lock
                    .map(|t| ThreadId(map.iter().position(|&from| from == t.0).unwrap()));
            }
        }
    }

    fn hash_of(m: &Machine<u8, u8>) -> u64 {
        std::hash::BuildHasher::hash_one(
            &std::hash::BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default(),
            m,
        )
    }

    /// The inline machine and the reference agree on what they hold; a
    /// machine built afresh with the same contents is equal to the driven
    /// one and hashes like it.
    fn assert_same(m: &Machine<u8, u8>, r: &reference::Machine) {
        assert!(m.memory_iter().eq(r.memory.iter().map(|(&a, &v)| (a, v))));
        assert_eq!(m.lock_holder(), r.lock);
        let mut fresh: Machine<u8, u8> = Machine::new(r.buffers.len(), r.model);
        for (&a, &v) in &r.memory {
            fresh.initialize(a, v);
        }
        for (i, buffer) in r.buffers.iter().enumerate() {
            assert!(m.buffer(t(i)).iter().eq(buffer.iter().copied()));
            for &(a, v) in buffer {
                fresh.buffers[i].push(a, v);
            }
        }
        fresh.lock = r.lock;
        assert_eq!(m, &fresh, "a popped or overwritten slot leaked into ==");
        assert_eq!(hash_of(m), hash_of(&fresh));
    }

    #[test]
    fn behaves_like_the_reference_over_random_operations() {
        fn next(seed: &mut u64) -> u64 {
            *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        for seed in 0..48u64 {
            let mut rng = seed;
            let threads = 1 + (seed % 4) as usize;
            let model = if seed % 8 == 7 {
                MemoryModel::Sc
            } else {
                MemoryModel::Tso
            };
            let mut m: Machine<u8, u8> = Machine::new(threads, model);
            let mut r = reference::Machine::new(threads, model);
            for _ in 0..600 {
                // One thread id in five is out of range.
                let th = t((next(&mut rng) % (threads as u64 + 1)) as usize);
                // Few addresses and values: forwarding, overwrites and
                // adjacent duplicates all happen often.
                let addr = 3 * (next(&mut rng) % 5) as u8;
                let value = (next(&mut rng) % 3) as u8;
                match next(&mut rng) % 12 {
                    0..=3 => assert_eq!(m.write(th, addr, value), r.write(th, addr, value)),
                    4 | 5 => assert_eq!(m.commit(th), r.commit(th)),
                    6 => assert_eq!(m.read(th, &addr), r.read(th, addr)),
                    7 => assert_eq!(m.lock(th), r.lock(th)),
                    8 => assert_eq!(m.unlock(th), r.unlock(th)),
                    9 => assert_eq!(m.remove(&addr), r.memory.remove(&addr)),
                    10 => assert_eq!(m.canonicalize_buffers(), r.canonicalize_buffers()),
                    _ => {
                        let mut map: Vec<usize> = (0..threads).collect();
                        map.rotate_left(next(&mut rng) as usize % threads);
                        map.swap(0, next(&mut rng) as usize % threads);
                        m.permute_threads(&map);
                        r.permute_threads(&map);
                    }
                }
                assert_eq!(m.mfence(th), r.mfence(th));
                assert_same(&m, &r);
            }
        }
    }

    #[test]
    fn a_full_buffer_delays_the_store() {
        let mut m = machine(MemoryModel::Tso);
        for i in 0..BUFFER_CAPACITY as u8 {
            m.write(t(0), X, i).unwrap();
        }
        assert_eq!(
            m.write(t(0), X, 99),
            Err(TsoError::BufferFull { thread: t(0) })
        );
        m.commit(t(0)).unwrap();
        m.write(t(0), X, 99).unwrap();
        assert_eq!(m.read(t(0), &X).unwrap(), Some(99));
    }
}
