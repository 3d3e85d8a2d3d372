//! Property tests for the registry's live-set index: sampling uniformity,
//! no lost deques across concurrent register/release/reuse churn (including
//! segment growth and shard-list compaction), and the recycled-slot ABA
//! guard on the swap-remove back-pointers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use lhws_deque::chase_lev::deque;
use lhws_deque::{ChaseLevWorker, DequeId, Registry, Steal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Registers `n` deques owned round-robin by `owners` workers, returning
/// the ids and their owner-side handles (kept alive so the stealers work).
fn register_n(
    reg: &Registry<u64>,
    n: usize,
    owners: usize,
) -> (Vec<DequeId>, Vec<ChaseLevWorker<u64>>) {
    let mut ids = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    for i in 0..n {
        let (w, s) = deque();
        ids.push(reg.register(i % owners, s).unwrap());
        handles.push(w);
    }
    (ids, handles)
}

#[test]
fn live_sampling_is_roughly_uniform() {
    // 64 live deques, 4 shards, 64k draws: every deque should land within
    // a generous band around the expected 1/64 frequency. A swap-remove
    // index that skewed toward one shard or slot order would blow the band.
    let reg: Registry<u64> = Registry::with_capacity_and_shards(256, 4);
    let (ids, _handles) = register_n(&reg, 64, 8);
    let mut rng = StdRng::seed_from_u64(42);
    let mut counts: HashMap<u32, u64> = HashMap::new();
    let draws = 64 * 1024u64;
    for _ in 0..draws {
        let id = reg.random_live_id(rng.gen()).expect("live set non-empty");
        *counts.entry(id.0).or_default() += 1;
    }
    assert_eq!(counts.len(), ids.len(), "every live deque must be drawn");
    let expected = draws as f64 / ids.len() as f64;
    for (id, c) in counts {
        let ratio = c as f64 / expected;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "deque {id} drawn {c} times (expected ~{expected:.0}); ratio {ratio:.2}"
        );
    }
}

#[test]
fn live_sampling_uniform_after_churn() {
    // Release half the deques (interleaved), then re-register new ones:
    // sampling must stay uniform over the *surviving* set and never draw a
    // released id.
    let reg: Registry<u64> = Registry::with_capacity_and_shards(512, 4);
    let (ids, _handles) = register_n(&reg, 128, 8);
    for id in ids.iter().step_by(2) {
        reg.release(*id);
    }
    let (new_ids, _new_handles) = register_n(&reg, 32, 8);
    let survivors: std::collections::HashSet<u32> = ids
        .iter()
        .skip(1)
        .step_by(2)
        .chain(new_ids.iter())
        .map(|id| id.0)
        .collect();
    let mut rng = StdRng::seed_from_u64(7);
    let mut counts: HashMap<u32, u64> = HashMap::new();
    let draws = 96 * 1024u64;
    for _ in 0..draws {
        let id = reg.random_live_id(rng.gen()).expect("live set non-empty");
        assert!(survivors.contains(&id.0), "drew released deque {id}");
        *counts.entry(id.0).or_default() += 1;
    }
    assert_eq!(counts.len(), survivors.len());
    let expected = draws as f64 / survivors.len() as f64;
    for (id, c) in counts {
        let ratio = c as f64 / expected;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "deque {id} drawn {c} times (expected ~{expected:.0}); ratio {ratio:.2}"
        );
    }
}

#[test]
fn concurrent_churn_loses_no_deque() {
    // Owners churn their deques through release/reuse cycles (driving
    // shard-list swap-removes, back-pointer fixups, and compactions) while
    // thieves hammer `random_live_id` + `steal`. Afterwards every deque
    // must be exactly where its owner left it: live iff the owner's last
    // action was reuse/register, and `random_live_id` must still reach
    // every live deque.
    const OWNERS: usize = 4;
    const PER_OWNER: usize = 64;
    const ROUNDS: usize = 400;

    let reg: Arc<Registry<u64>> = Arc::new(Registry::with_capacity_and_shards(4096, OWNERS));
    let stop = Arc::new(AtomicBool::new(false));
    let stolen = Arc::new(AtomicU64::new(0));

    let thieves: Vec<_> = (0..3)
        .map(|t| {
            let reg = reg.clone();
            let stop = stop.clone();
            let stolen = stolen.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + t);
                while !stop.load(Ordering::Relaxed) {
                    if let Some(id) = reg.random_live_id(rng.gen()) {
                        if let Steal::Success(_) = reg.steal(id) {
                            stolen.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();

    let owners: Vec<_> = (0..OWNERS)
        .map(|o| {
            let reg = reg.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(o as u64);
                let mut deques = Vec::new();
                for i in 0..PER_OWNER {
                    let (w, s) = deque();
                    let id = reg.register(o, s).unwrap();
                    w.push_bottom((o * PER_OWNER + i) as u64);
                    deques.push((id, w, true));
                }
                for _ in 0..ROUNDS {
                    let i = rng.gen_range(0..deques.len());
                    let (id, w, live) = &mut deques[i];
                    if *live {
                        // Owner retires the deque: drain it first so a
                        // recycled deque starts empty, as in the runtime.
                        while w.pop_bottom().is_some() {}
                        reg.release(*id);
                        *live = false;
                    } else {
                        reg.reuse(*id);
                        w.push_bottom(0xBEEF);
                        *live = true;
                    }
                }
                deques
                    .into_iter()
                    .map(|(id, w, live)| (id, live, w))
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let final_states: Vec<_> = owners.into_iter().flat_map(|h| h.join().unwrap()).collect();
    stop.store(true, Ordering::Relaxed);
    for t in thieves {
        t.join().unwrap();
    }

    // No deque lost or resurrected: the index agrees with each owner's
    // final action, and the live count adds up.
    let want_live = final_states.iter().filter(|(_, live, _)| *live).count();
    assert_eq!(reg.live_len(), want_live);
    for (id, live, _w) in &final_states {
        assert_eq!(
            reg.is_live(*id),
            *live,
            "deque {id} index state diverged from owner history"
        );
    }
    // Sampling still reaches every live deque after the churn.
    let mut rng = StdRng::seed_from_u64(99);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..200_000 {
        if let Some(id) = reg.random_live_id(rng.gen()) {
            seen.insert(id.0);
        }
        if seen.len() == want_live {
            break;
        }
    }
    assert_eq!(seen.len(), want_live, "some live deque became unreachable");
    assert!(reg.live_high_water() >= want_live);
}

#[test]
fn recycled_slot_aba_guard_holds() {
    // Rapid release/reuse of the same id interleaved with churn of its
    // shard neighbors: the back-pointer fix-up after swap_remove must
    // always track the *current* position, and a reuse after release must
    // land the id back exactly once. A classic ABA bug here would corrupt
    // a neighbor's back-pointer and lose it from the index.
    let reg: Registry<u64> = Registry::with_capacity_and_shards(256, 1);
    let (ids, _handles) = register_n(&reg, 16, 1);
    let mut rng = StdRng::seed_from_u64(5);
    let mut live = vec![true; ids.len()];
    for _ in 0..10_000 {
        let i = rng.gen_range(0..ids.len());
        if live[i] {
            reg.release(ids[i]);
        } else {
            reg.reuse(ids[i]);
        }
        live[i] = !live[i];
        // Invariant after every step: the index is exactly the live set.
        let want = live.iter().filter(|l| **l).count();
        assert_eq!(reg.live_len(), want);
    }
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(reg.is_live(*id), live[i]);
    }
    // Every surviving deque is still reachable by sampling.
    let want: std::collections::HashSet<u32> = ids
        .iter()
        .zip(&live)
        .filter(|(_, l)| **l)
        .map(|(id, _)| id.0)
        .collect();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..100_000 {
        if let Some(id) = reg.random_live_id(rng.gen()) {
            seen.insert(id.0);
        }
        if seen.len() == want.len() {
            break;
        }
    }
    assert_eq!(seen, want);
}

#[test]
fn growth_across_segments_keeps_index_consistent() {
    // Drive allocation well past several segment boundaries (8, 24, 56,
    // 120, 248...) while releasing every third deque: `len()` (allocated
    // prefix), `live_len()`, and per-id `is_live` must stay consistent,
    // and compaction must never drop a survivor.
    let reg: Registry<u64> = Registry::with_capacity_and_shards(2048, 2);
    let mut handles = Vec::new();
    let mut expect_live = Vec::new();
    for i in 0..1000usize {
        let (w, s) = deque();
        let id = reg.register(i % 2, s).unwrap();
        handles.push(w);
        if i % 3 == 0 {
            reg.release(id);
        } else {
            expect_live.push(id);
        }
    }
    assert_eq!(reg.len(), 1000);
    assert_eq!(reg.live_len(), expect_live.len());
    for id in &expect_live {
        assert!(reg.is_live(*id));
    }
    // Mass release to force compaction; survivors stay intact.
    let survivors: Vec<_> = expect_live.split_off(expect_live.len() - 8);
    for id in &expect_live {
        reg.release(*id);
    }
    assert!(reg.compactions() > 0, "mass release must compact shards");
    assert_eq!(reg.live_len(), survivors.len());
    for id in &survivors {
        assert!(reg.is_live(*id), "compaction lost deque {id}");
    }
}
