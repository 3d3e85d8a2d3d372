//! Property tests for steal-half batching
//! ([`ChaseLevStealer::steal_batch_into`], checked against the
//! [`MutexStealer`] oracle).
//!
//! The batch steal claims items one CAS at a time precisely because a
//! single wide CAS of `top` could double-take items the LIFO owner
//! already popped (see the method docs). These tests drive that race
//! hard: concurrent thieves batch-stealing against an owner that pushes
//! and pops in bursts must neither lose nor duplicate a single item, and
//! every batch must come out in original top-to-bottom order.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use lhws_deque::{
    chase_lev, mutex_deque, ChaseLevStealer, ChaseLevWorker, MutexStealer, MutexWorker, Steal,
};

/// The Chase–Lev deque and its mutex oracle behind one interface, so
/// each property runs against both implementations.
trait Deque: Send + 'static {
    type Stealer: Clone + Send + 'static;
    const NAME: &'static str;
    fn create() -> (Self, Self::Stealer)
    where
        Self: Sized;
    fn push_bottom(&self, v: usize);
    fn pop_bottom(&self) -> Option<usize>;
    fn len(&self) -> usize;
    fn steal(s: &Self::Stealer) -> Steal<usize>;
    fn steal_batch_into(s: &Self::Stealer, limit: usize, out: &mut Vec<usize>) -> Steal<usize>;
    fn stealer_is_empty(s: &Self::Stealer) -> bool;
}

macro_rules! impl_deque {
    ($w:ty, $s:ty, $new:path, $name:literal) => {
        impl Deque for $w {
            type Stealer = $s;
            const NAME: &'static str = $name;
            fn create() -> (Self, $s) {
                $new()
            }
            fn push_bottom(&self, v: usize) {
                <$w>::push_bottom(self, v)
            }
            fn pop_bottom(&self) -> Option<usize> {
                <$w>::pop_bottom(self)
            }
            fn len(&self) -> usize {
                <$w>::len(self)
            }
            fn steal(s: &$s) -> Steal<usize> {
                s.steal()
            }
            fn steal_batch_into(s: &$s, limit: usize, out: &mut Vec<usize>) -> Steal<usize> {
                s.steal_batch_into(limit, out)
            }
            fn stealer_is_empty(s: &$s) -> bool {
                s.is_empty()
            }
        }
    };
}

impl_deque!(
    ChaseLevWorker<usize>,
    ChaseLevStealer<usize>,
    chase_lev::deque,
    "chase-lev"
);
impl_deque!(
    MutexWorker<usize>,
    MutexStealer<usize>,
    mutex_deque::deque,
    "mutex"
);

/// Concurrent churn: owner pushes `items` in bursts and pops some back
/// while `thieves` batch-steal with the given limit. Returns
/// (owner-popped values, per-thief stolen batches).
fn churn<D: Deque>(
    items: usize,
    thieves: usize,
    limit: usize,
) -> (Vec<usize>, Vec<Vec<Vec<usize>>>) {
    let (w, s) = D::create();
    let done = Arc::new(AtomicBool::new(false));

    let handles: Vec<_> = (0..thieves)
        .map(|_| {
            let s = s.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut batches: Vec<Vec<usize>> = Vec::new();
                let mut scratch = Vec::new();
                loop {
                    scratch.clear();
                    match D::steal_batch_into(&s, limit, &mut scratch) {
                        Steal::Success(n) => {
                            assert_eq!(n, scratch.len(), "count matches items appended");
                            assert!(n >= 1 && n <= limit.max(1), "batch within bounds");
                            batches.push(scratch.clone());
                        }
                        Steal::Retry => std::hint::spin_loop(),
                        Steal::Empty => {
                            if done.load(Ordering::Acquire) && D::stealer_is_empty(&s) {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                }
                batches
            })
        })
        .collect();

    let mut popped = Vec::new();
    let mut next = 0usize;
    while next < items {
        let burst = 1 + next % 7;
        for _ in 0..burst {
            if next < items {
                w.push_bottom(next);
                next += 1;
            }
        }
        if next.is_multiple_of(3) {
            if let Some(v) = w.pop_bottom() {
                popped.push(v);
            }
        }
    }
    while let Some(v) = w.pop_bottom() {
        popped.push(v);
    }
    done.store(true, Ordering::Release);

    let stolen = handles.into_iter().map(|h| h.join().unwrap()).collect();
    (popped, stolen)
}

fn loses_and_duplicates_nothing<D: Deque>() {
    const ITEMS: usize = 50_000;
    let (popped, stolen) = churn::<D>(ITEMS, 4, 16);
    let mut all = popped;
    for batches in stolen {
        for b in batches {
            all.extend(b);
        }
    }
    let kind = D::NAME;
    assert_eq!(all.len(), ITEMS, "{kind}: every item seen exactly once");
    let set: HashSet<usize> = all.iter().copied().collect();
    assert_eq!(set.len(), ITEMS, "{kind}: no duplicates");
}

#[test]
fn concurrent_steal_half_loses_and_duplicates_nothing() {
    loses_and_duplicates_nothing::<ChaseLevWorker<usize>>();
    loses_and_duplicates_nothing::<MutexWorker<usize>>();
}

#[test]
fn concurrent_batches_preserve_original_order() {
    // Values are pushed in increasing order and never move between
    // indices (owner pops vacate bottom indices, which later pushes
    // refill with strictly larger values), so a correct batch — claimed
    // from consecutive top indices — is strictly increasing. A reordered
    // or duplicated claim would break monotonicity.
    const ITEMS: usize = 30_000;
    let (_popped, stolen) = churn::<ChaseLevWorker<usize>>(ITEMS, 4, 8);
    let mut batched_items = 0usize;
    for batches in &stolen {
        for b in batches {
            for pair in b.windows(2) {
                assert!(
                    pair[1] > pair[0],
                    "batch must preserve top-to-bottom order, got {b:?}"
                );
            }
            batched_items += b.len();
        }
    }
    assert!(batched_items > 0, "thieves stole something");
}

/// Drives two deques through the same operation sequence, one stealing
/// with `steal()` and one with `steal_batch_into(1, ..)`; every
/// observable result must match step for step.
fn limit_one_matches_single_steal<D: Deque>() {
    let kind = D::NAME;
    let (w1, s1) = D::create();
    let (w2, s2) = D::create();
    let mut x = 0x1234_5678_9abc_def0u64;
    let mut next = 0usize;
    for _ in 0..10_000 {
        // SplitMix-style op mix: push / owner pop / thief steal.
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        match x >> 61 {
            0..=2 => {
                w1.push_bottom(next);
                w2.push_bottom(next);
                next += 1;
            }
            3..=4 => {
                assert_eq!(w1.pop_bottom(), w2.pop_bottom(), "{kind} pop diverged");
            }
            _ => {
                let single = D::steal(&s1).success();
                let mut out = Vec::new();
                let batch = match D::steal_batch_into(&s2, 1, &mut out) {
                    Steal::Success(n) => {
                        assert_eq!(n, 1, "limit=1 never claims more than one");
                        Some(out[0])
                    }
                    _ => None,
                };
                assert_eq!(single, batch, "{kind} steal diverged");
            }
        }
    }
    assert_eq!(w1.len(), w2.len(), "{kind} final lengths diverged");
}

#[test]
fn batch_limit_one_is_identical_to_single_steal() {
    limit_one_matches_single_steal::<ChaseLevWorker<usize>>();
    limit_one_matches_single_steal::<MutexWorker<usize>>();
}

#[test]
fn steal_half_drains_deep_deque_geometrically() {
    // Repeated uncapped steal-half against a quiescent owner must take
    // ceil(live/2) every time: 4096 → 2048 → 1024 → … → 1 → Empty.
    let (w, s) = chase_lev::deque::<usize>();
    for i in 0..4096 {
        w.push_bottom(i);
    }
    let mut expect_live = 4096usize;
    let mut out = Vec::new();
    while expect_live > 0 {
        out.clear();
        let want = expect_live.div_ceil(2);
        assert_eq!(
            s.steal_batch_into(usize::MAX, &mut out),
            Steal::Success(want)
        );
        expect_live -= want;
    }
    assert_eq!(s.steal_batch_into(usize::MAX, &mut out), Steal::Empty);
}
