//! A white-box consistency check for the torture harness and targeted
//! tests. It is **not** part of the supported API.

use std::sync::atomic::Ordering;

use crate::collector::Collector;
use crate::heap::Phase;

impl Collector {
    /// Exhaustive consistency check of collector and heap state — the
    /// oracle the torture harness runs between cycles. Blocks until no
    /// collection cycle is in flight, then verifies:
    ///
    /// * the phase is `Idle` (a quiesced collector left no half-open
    ///   handshake state behind);
    /// * every registered mutator is active (eviction and deregistration
    ///   leave no zombies in the registry);
    /// * the heap's free-state structures are sound
    ///   ([`Heap::debug_verify`](crate::heap::Heap::debug_verify)): the
    ///   free list holds unique, in-bounds, unallocated slots and live +
    ///   free never exceeds capacity.
    #[doc(hidden)]
    pub fn debug_verify_integrity(&self) -> Result<(), String> {
        let sh = self.shared_for_debug();
        // Holding the cycle lock guarantees no cycle is mid-flight.
        let _quiesced = sh.cycle_lock.lock();
        let phase = Phase::from_u8(sh.phase.load(Ordering::Relaxed));
        if phase != Phase::Idle {
            return Err(format!("no cycle in flight but phase is {phase:?}"));
        }
        for m in sh.registry.lock().iter() {
            if !m.active.load(Ordering::Acquire) {
                return Err(format!("registered mutator {} is inactive", m.id));
            }
        }
        sh.heap.debug_verify()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Collector, GcConfig};

    #[test]
    fn integrity_check_passes_on_a_quiesced_collector() {
        let c = Collector::new(GcConfig::new(8, 2));
        let mut m = c.register_mutator();
        let a = m.alloc(2).unwrap();
        let b = m.alloc(2).unwrap();
        m.store(a, 0, Some(b));
        c.debug_verify_integrity()
            .expect("fresh heap is consistent");
        m.discard(a);
        m.discard(b);
        drop(m);
        assert!(c.collect().is_completed());
        c.debug_verify_integrity()
            .expect("post-cycle heap is consistent");
    }
}
