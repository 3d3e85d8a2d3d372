//! Work-stealing deque substrate for latency-hiding work stealing.
//!
//! The SPAA'16 paper builds on three deque-related pieces, all provided here:
//!
//! 1. **A lock-free work-stealing deque** ([`chase_lev`]) — the classic
//!    Chase–Lev growable circular deque (the paper's citation \[11\]),
//!    implemented from scratch on atomics. The owner pushes and pops at the
//!    bottom; any number of thieves steal from the top.
//! 2. **A mutex-based deque** ([`mutex_deque`]) with the same handle API,
//!    used only as a correctness oracle in tests: the runtime never builds
//!    it.
//! 3. **The global deque registry** ([`registry`]) — the paper's `gDeques`
//!    array plus `gTotalDeques` counter (Figure 5). Deques are allocated with
//!    a fetch-and-add, are never deallocated, and are recycled through
//!    per-worker free lists. Thieves draw a uniformly random deque from a
//!    live-set index over the registry; a draw that races a `free()` is
//!    simply a failed steal, exactly as analyzed.

#![warn(missing_docs)]

pub mod chase_lev;
pub mod mutex_deque;
pub mod registry;
pub mod sync;

pub use chase_lev::{ChaseLevStealer, ChaseLevWorker};
pub use mutex_deque::{MutexStealer, MutexWorker};
pub use registry::{DequeId, Registry, RegistryError};

/// Outcome of a steal attempt on the top end of a deque.
///
/// Mirrors the three-way result of the Chase–Lev `steal` operation: the deque
/// may be observed empty, the thief may lose a race (and should retry or move
/// on), or it may win an item.
#[derive(Debug, PartialEq, Eq)]
pub enum Steal<T> {
    /// The deque was observed empty.
    Empty,
    /// The thief lost a race with the owner or another thief.
    Retry,
    /// The steal succeeded.
    Success(T),
}

impl<T> Steal<T> {
    /// Returns the stolen item, if any.
    pub fn success(self) -> Option<T> {
        match self {
            Steal::Success(v) => Some(v),
            _ => None,
        }
    }

    /// True if the steal attempt observed an empty deque.
    pub fn is_empty(&self) -> bool {
        matches!(self, Steal::Empty)
    }

    /// True if the thief lost a race and may retry.
    pub fn is_retry(&self) -> bool {
        matches!(self, Steal::Retry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_roundtrip_chase_lev() {
        let (w, s) = chase_lev::deque();
        w.push_bottom(1);
        w.push_bottom(2);
        assert_eq!(w.len(), 2);
        assert_eq!(s.steal().success(), Some(1));
        assert_eq!(w.pop_bottom(), Some(2));
        assert!(w.is_empty());
        assert!(s.is_empty());
    }

    #[test]
    fn handle_roundtrip_mutex() {
        let (w, s) = mutex_deque::deque();
        w.push_bottom(10);
        w.push_bottom(20);
        assert_eq!(s.steal().success(), Some(10));
        assert_eq!(w.pop_bottom(), Some(20));
        assert!(matches!(s.steal(), Steal::Empty));
    }

    #[test]
    fn handle_steal_batch_both_kinds() {
        let (cw, cs) = chase_lev::deque();
        let (mw, ms) = mutex_deque::deque();
        for i in 0..6 {
            cw.push_bottom(i);
            mw.push_bottom(i);
        }
        let (mut c, mut m) = (Vec::new(), Vec::new());
        assert_eq!(cs.steal_batch_into(8, &mut c), Steal::Success(3));
        assert_eq!(ms.steal_batch_into(8, &mut m), Steal::Success(3));
        assert_eq!(c, vec![0, 1, 2], "chase-lev batch in order");
        assert_eq!(m, c, "mutex oracle agrees");
        c.clear();
        m.clear();
        assert_eq!(cs.steal_batch_into(1, &mut c), Steal::Success(1));
        assert_eq!(ms.steal_batch_into(1, &mut m), Steal::Success(1));
        assert_eq!(c, vec![3], "limit=1 degenerate case");
        assert_eq!(m, c, "mutex oracle agrees");
    }

    #[test]
    fn stealer_handle_clone() {
        let (w, s) = chase_lev::deque();
        let s2 = s.clone();
        w.push_bottom(7);
        assert_eq!(s2.steal().success(), Some(7));
        assert!(s.steal().is_empty());
    }

    #[test]
    fn extra_stealer_from_worker() {
        let (w, _s) = mutex_deque::deque();
        let s2 = w.stealer();
        w.push_bottom(5);
        assert_eq!(s2.steal().success(), Some(5));
    }

    #[test]
    fn steal_result_helpers() {
        assert!(Steal::<i32>::Empty.is_empty());
        assert!(Steal::<i32>::Retry.is_retry());
        assert_eq!(Steal::Success(3).success(), Some(3));
        assert_eq!(Steal::<i32>::Retry.success(), None);
    }
}
