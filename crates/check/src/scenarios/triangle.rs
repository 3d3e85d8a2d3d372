//! The paper's suspend/resume/steal triangle over real structures.
//!
//! The latency-hiding protocol (§5 of the paper, `worker.rs` in the
//! runtime): when a task suspends on an external event, its worker
//! *switches* to a fresh deque and keeps scheduling; the suspended
//! deque stays in the live set, so thieves keep the abandoned work
//! moving; the resume delivers the continuation back to the owner.
//! This scenario drives exactly that dance with the real
//! [`lhws_deque::Registry`] and Chase–Lev deques — only the
//! "task" is shrunk to a tagged integer and the external event to a
//! checker [`lhws_checkrt::sync::Event`].
//!
//! Invariants (NoLostTasks / NoDoubleExecution in
//! `specs/tla/SuspendResumeSteal.tla`): every task executes exactly
//! once whether it reached its claimant via the old deque, the new
//! deque, or a steal; the live set ends empty.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lhws_checkrt::sync::Event;
use lhws_checkrt::thread;
use lhws_deque::chase_lev::deque;
use lhws_deque::{Registry, Steal};

/// Owner suspends mid-run (deque switch A → B), a resumer delivers the
/// continuation, and a thief steals from whatever is live throughout.
pub fn suspend_resume_steal() {
    let reg = Arc::new(Registry::<u32>::with_capacity_and_shards(8, 1));
    let resume = Arc::new(Event::new());
    // Claim counters are scenario bookkeeping, not part of the structure
    // under test: raw std atomics, no schedule points. Index = task id.
    let executed: Arc<[AtomicUsize; 4]> = Arc::new([(); 4].map(|_| AtomicUsize::new(0)));

    // Worker 0 starts with tasks 1 and 2 on deque A.
    let (wa, sa) = deque();
    wa.push_bottom(1);
    wa.push_bottom(2);
    let ida = reg.register(0, sa).expect("register deque A");

    let r = Arc::clone(&reg);
    let exec = Arc::clone(&executed);
    let thief = thread::spawn(move || {
        for uniform in [0u64, u64::MAX / 2] {
            if let Some(id) = r.random_live_id(uniform) {
                if let Steal::Success(v) = r.steal(id) {
                    exec[v as usize].fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    });
    let ev = Arc::clone(&resume);
    let resumer = thread::spawn(move || ev.set());

    // The owner's running task suspends on the external event: switch to
    // a fresh deque B, leaving A live and stealable (the whole point of
    // latency hiding — the suspended computation's other branches keep
    // moving via steals).
    let (wb, sb) = deque();
    let idb = reg.register(0, sb).expect("register deque B");
    resume.wait();
    // Resume delivered: the continuation (task 3) lands on the active
    // deque and the owner drains B, then goes back for what is left of A.
    wb.push_bottom(3);
    while let Some(v) = wb.pop_bottom() {
        executed[v as usize].fetch_add(1, Ordering::Relaxed);
    }
    while let Some(v) = wa.pop_bottom() {
        executed[v as usize].fetch_add(1, Ordering::Relaxed);
    }
    thief.join().expect("thief panicked");
    resumer.join().expect("resumer panicked");

    reg.release(idb);
    reg.release(ida);
    for task in 1..=3 {
        let n = executed[task].load(Ordering::Relaxed);
        assert_eq!(n, 1, "task {task} executed {n} times");
    }
    assert_eq!(reg.live_len(), 0, "live set must end empty");
}
