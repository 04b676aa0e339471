//! Heap vocabulary for the *Relaxing Safely* reproduction.
//!
//! This crate provides the object-heap abstractions shared by the executable
//! collector model (`gc-model`) and the experiment drivers: references,
//! objects with mark flags and reference fields, a partial-map heap in the
//! time-honored manner of the paper's §3.1, path reachability, Dijkstra's
//! tricolor abstraction with the paper's refined color interpretation
//! (§3.2), word-sized reference sets and disjoint work-lists.
//!
//! Everything here is deliberately small, canonical and hashable: heaps are
//! embedded wholesale into model-checker states.
//!
//! # Example
//!
//! ```
//! use gc_types::{AbstractHeap, Ref};
//!
//! let mut heap = AbstractHeap::new(4, 2); // 4 slots, 2 fields per object
//! let a = heap.alloc(true).unwrap();
//! let b = heap.alloc(true).unwrap();
//! heap.set_field(a, 0, Some(b));
//!
//! let reach = heap.reachable([a]);
//! assert!(reach.contains(&b));
//! assert!(heap.valid_refs([a])); // every reachable ref has an object
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod color;
mod heap;
mod refs;
mod refset;
mod worklist;

pub use color::{Color, Tricolor};
pub use heap::{AbstractHeap, Object};
pub use refs::{Field, MutId, Ref};
pub use refset::RefSet;
pub use worklist::{disjoint, WorkList};
