//! An operational model of x86-TSO shared memory.
//!
//! This crate implements the programmer's model of x86 multiprocessor memory
//! due to Sewell et al. ("x86-TSO: a rigorous and usable programmer's model
//! for x86 multiprocessors", CACM 53(7), 2010), which is the memory substrate
//! verified against in *Relaxing Safely: Verified On-the-Fly Garbage
//! Collection for x86-TSO* (PLDI 2015, Figure 9).
//!
//! The model postulates:
//!
//! * a single shared memory, a partial map from addresses to values;
//! * one FIFO **store buffer** per hardware thread: stores are enqueued and
//!   committed to shared memory asynchronously, in order;
//! * loads first consult the issuing thread's own store buffer (newest entry
//!   for the address wins) and fall through to shared memory otherwise;
//! * a global **bus lock** taken by locked instructions (e.g. `LOCK CMPXCHG`);
//!   while one thread holds the lock all *other* threads are blocked from
//!   reading memory and from committing buffered stores (they may still
//!   enqueue stores);
//! * `MFENCE` is modelled as a step that is enabled only once the issuing
//!   thread's store buffer is empty, so "issuing a fence" means waiting for
//!   the buffer to drain;
//! * releasing the bus lock likewise requires an empty buffer, which gives
//!   locked instructions their implicit flushing/fence behaviour.
//!
//! The machine is generic over address and value types — anything that
//! round-trips through a byte ([`Cell`]) — so that it can serve both as a
//! stand-alone litmus-test playground ([`litmus`]) and as the memory
//! component of the garbage collector model in the `gc-model` crate. It is
//! bounded and inline ([`MAX_THREADS`], [`BUFFER_CAPACITY`],
//! [`MEMORY_CELLS`]): a model checker copies, compares and hashes millions
//! of machines, so one is a few dozen bytes of plain `Copy` data.
//!
//! # Example
//!
//! The classic store-buffering (SB) litmus test: both threads write 1 and
//! then read the other's location. Under sequential consistency at least one
//! thread must see a 1; under TSO both loads may see the initial 0 because
//! both stores can still be sitting in the store buffers.
//!
//! ```
//! use tso_model::{Machine, MemoryModel, ThreadId};
//!
//! let t0 = ThreadId::new(0);
//! let t1 = ThreadId::new(1);
//! let (x, y) = (0u8, 1u8);
//! let mut m: Machine<u8, u8> = Machine::new(2, MemoryModel::Tso);
//! m.initialize(x, 0);
//! m.initialize(y, 0);
//!
//! m.write(t0, x, 1)?; // buffered
//! m.write(t1, y, 1)?; // buffered
//!
//! // Neither store has committed, so both threads read 0 from memory:
//! assert_eq!(m.read(t0, &y)?, Some(0));
//! assert_eq!(m.read(t1, &x)?, Some(0));
//!
//! // ... yet each thread sees its *own* store via buffer forwarding:
//! assert_eq!(m.read(t0, &x)?, Some(1));
//! assert_eq!(m.read(t1, &y)?, Some(1));
//! # Ok::<(), tso_model::TsoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod litmus;
mod machine;

pub use machine::{
    Cell, Machine, MemoryModel, StoreBuffer, ThreadId, TsoError, BUFFER_CAPACITY, MAX_THREADS,
    MEMORY_CELLS,
};
