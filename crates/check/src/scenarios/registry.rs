//! Live-set registry scenarios: registration, ABA-guarded release,
//! rescue, and many-thread churn over the real
//! [`lhws_deque::Registry`].
//!
//! The registry's own `debug_assert!`s on the release path ("releasing
//! unregistered deque", "deque released while not live", "live index
//! corrupt at ...") *are* the ReleaseFindsOwnId invariant from
//! `specs/tla/LiveSetRegistry.tla`: under the dev profile they fire as
//! panics, which the checker reports with a replayable schedule. The
//! scenarios here drive the paths those asserts guard while thieves
//! concurrently draw ids and steal.
//!
//! Scenario bookkeeping (claim counters) deliberately uses raw
//! `std::sync::atomic` types, not the instrumented ones: the counters
//! are not part of the structure under test and must not add schedule
//! points.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lhws_checkrt::thread;
use lhws_deque::chase_lev::deque;
use lhws_deque::{Registry, Steal};

/// Two deques registered for one owner; the owner drains and releases
/// one while a thief draws `random_live_id` and steals. Checks
/// exactly-once claims, `is_live` transitions, and `live_len`
/// bookkeeping.
pub fn live_set() {
    let reg = Arc::new(Registry::<u32>::with_capacity_and_shards(8, 1));
    let (w0, s0) = deque();
    w0.push_bottom(10);
    w0.push_bottom(11);
    let id0 = reg.register(0, s0).expect("register deque 0");
    let (w1, s1) = deque();
    w1.push_bottom(20);
    let id1 = reg.register(0, s1).expect("register deque 1");
    assert_eq!(reg.live_len(), 2);

    let r = Arc::clone(&reg);
    let thief = thread::spawn(move || {
        let mut got = Vec::new();
        for uniform in [0u64, u64::MAX / 3] {
            if let Some(id) = r.random_live_id(uniform) {
                if let Steal::Success(v) = r.steal(id) {
                    got.push(v);
                }
            }
        }
        got
    });

    // The owner drains deque 1 and retires it mid-flight.
    let mut owned = Vec::new();
    while let Some(v) = w1.pop_bottom() {
        owned.push(v);
    }
    reg.release(id1);
    assert!(!reg.is_live(id1), "released deque still reads live");

    let stolen = thief.join().expect("thief panicked");
    while let Some(v) = w0.pop_bottom() {
        owned.push(v);
    }

    let mut all: Vec<u32> = owned.iter().chain(stolen.iter()).copied().collect();
    all.sort_unstable();
    assert_eq!(
        all,
        vec![10, 11, 20],
        "item lost or claimed twice: owner {owned:?}, thief {stolen:?}"
    );
    assert_eq!(reg.live_len(), 1);
    assert!(reg.is_live(id0));
    reg.release(id0);
    assert_eq!(reg.live_len(), 0);
}

/// The recycling cycle from the 10k-cycle property test, shrunk to model
/// scale: the owner releases and reuses the same id twice while a thief
/// interleaves `is_live` probes, live draws, and steals. The ABA guard
/// (the slot's `live_pos` back-pointer) must keep every release finding
/// its own id — a violation trips the registry's internal asserts.
pub fn aba_guard() {
    let reg = Arc::new(Registry::<u32>::with_capacity_and_shards(4, 1));
    let (_worker, stealer) = deque();
    let id = reg.register(0, stealer).expect("register");

    let r = Arc::clone(&reg);
    let thief = thread::spawn(move || {
        for uniform in [0u64, u64::MAX / 2] {
            let _ = r.is_live(id);
            if let Some(drawn) = r.random_live_id(uniform) {
                assert_eq!(
                    drawn, id,
                    "single-slot registry handed out a foreign id {drawn}"
                );
                let _ = r.steal(drawn);
            }
        }
    });

    for _ in 0..2 {
        reg.release(id);
        assert!(!reg.is_live(id), "released deque still reads live");
        reg.reuse(id);
        assert!(reg.is_live(id), "reused deque not live again");
    }
    thief.join().expect("thief panicked");
    assert!(reg.is_live(id));
    assert_eq!(reg.live_len(), 1);
}

/// The self-healing §14 rescue protocol: worker 0 is declared dead with
/// two live deques; a supervisor thread `rescue(0)`s and drains the
/// rescued ids through the slots' stealer ends while an ordinary thief
/// is still drawing from the live set. Every orphaned task must be
/// claimed exactly once (rescuer, thief, or the final sweep), both ids
/// must leave the live set, and a second rescue must find nothing.
pub fn respawn_rescue() {
    let reg = Arc::new(Registry::<u32>::with_capacity_and_shards(8, 1));
    let (wa, sa) = deque();
    wa.push_bottom(1);
    wa.push_bottom(2);
    let ida = reg.register(0, sa).expect("register deque A");
    let (wb, sb) = deque();
    wb.push_bottom(3);
    let idb = reg.register(0, sb).expect("register deque B");
    // Worker 0 "dies" here; its worker-side handles survive in the
    // supervisor's hands (this thread) only for the final lost-task sweep.

    let r = Arc::clone(&reg);
    let rescuer = thread::spawn(move || {
        let ids = r.rescue(0);
        let mut got = Vec::new();
        for &id in &ids {
            // Bounded attempts: a racing thief can force Retry.
            for _ in 0..3 {
                match r.steal(id) {
                    Steal::Success(v) => got.push(v),
                    Steal::Empty => break,
                    Steal::Retry => {}
                }
            }
        }
        (ids.len(), got)
    });
    let r = Arc::clone(&reg);
    let thief = thread::spawn(move || {
        let mut got = Vec::new();
        for uniform in [0u64, u64::MAX / 2] {
            if let Some(id) = r.random_live_id(uniform) {
                if let Steal::Success(v) = r.steal(id) {
                    got.push(v);
                }
            }
        }
        got
    });

    let (rescued_ids, rescued) = rescuer.join().expect("rescuer panicked");
    let stolen = thief.join().expect("thief panicked");
    assert_eq!(rescued_ids, 2, "rescue(0) must return both dead deques");
    assert_eq!(reg.live_len(), 0, "rescued deques must leave the live set");
    assert!(!reg.is_live(ida) && !reg.is_live(idb));
    assert!(reg.rescue(0).is_empty(), "second rescue must find nothing");

    // Whatever neither rescuer nor thief claimed is still in the deques.
    let mut rest = Vec::new();
    while let Some(v) = wa.pop_bottom() {
        rest.push(v);
    }
    while let Some(v) = wb.pop_bottom() {
        rest.push(v);
    }
    let mut all: Vec<u32> = rescued
        .iter()
        .chain(stolen.iter())
        .chain(rest.iter())
        .copied()
        .collect();
    all.sort_unstable();
    assert_eq!(
        all,
        vec![1, 2, 3],
        "task lost or claimed twice: rescued {rescued:?}, stolen {stolen:?}, left {rest:?}"
    );
}

/// The 4-owner × 3-thief churn from the registry property tests, run as
/// seeded random schedule walks (the bounded-DFS space of 8 threads is
/// far too large to exhaust). Each owner registers a deque, pushes two
/// tagged items, drains what the thieves leave, and releases; every item
/// must be claimed exactly once and the live set must end empty.
pub fn churn() {
    const OWNERS: usize = 4;
    const THIEVES: usize = 3;
    const PER_OWNER: usize = 2;

    let reg = Arc::new(Registry::<u32>::with_capacity_and_shards(16, 2));
    let claims: Arc<Vec<AtomicUsize>> = Arc::new(
        (0..OWNERS * PER_OWNER)
            .map(|_| AtomicUsize::new(0))
            .collect(),
    );

    let mut handles = Vec::new();
    for owner in 0..OWNERS {
        let reg = Arc::clone(&reg);
        let claims = Arc::clone(&claims);
        handles.push(thread::spawn(move || {
            let (worker, stealer) = deque();
            for k in 0..PER_OWNER {
                worker.push_bottom((owner * PER_OWNER + k) as u32);
            }
            let id = reg.register(owner, stealer).expect("register");
            while let Some(v) = worker.pop_bottom() {
                claims[v as usize].fetch_add(1, Ordering::Relaxed);
            }
            reg.release(id);
        }));
    }
    for t in 0..THIEVES {
        let reg = Arc::clone(&reg);
        let claims = Arc::clone(&claims);
        handles.push(thread::spawn(move || {
            // A tiny private LCG; the schedule explorer provides the
            // actual nondeterminism, this only decorrelates the draws.
            let mut u = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1);
            for _ in 0..4 {
                u = u
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if let Some(id) = reg.random_live_id(u) {
                    if let Steal::Success(v) = reg.steal(id) {
                        claims[v as usize].fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("model thread panicked");
    }
    for (item, count) in claims.iter().enumerate() {
        let n = count.load(Ordering::Relaxed);
        assert_eq!(n, 1, "item {item} claimed {n} times");
    }
    assert_eq!(reg.live_len(), 0, "live set must end empty");
}
