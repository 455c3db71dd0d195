//! Fixture: the same risky captures as `escape_fire.rs`, silenced by
//! justified suppressions on the line above each closure.

use std::cell::RefCell;
use std::num::NonZeroUsize;

pub fn run_indexed<T>(_jobs: NonZeroUsize, _count: usize, _task: impl Fn(usize) -> T) -> Vec<T> {
    Vec::new()
}

pub fn fan_out_with_refcell(jobs: NonZeroUsize) -> u64 {
    let scratch = RefCell::new(0u64);
    // xtask-analyze: allow(thread-escape) — jobs is pinned to 1 here, the closure never leaves this thread
    let results = run_indexed(jobs, 8, |i| {
        *scratch.borrow_mut() += i as u64;
        i as u64
    });
    results.iter().sum::<u64>() + *scratch.borrow()
}

pub fn fan_out_with_mut_ref(jobs: NonZeroUsize, acc: &mut Vec<u64>) -> usize {
    // xtask-analyze: allow(thread-escape) — acc is only read (len), never written, across the boundary
    let slots = run_indexed(jobs, 4, |i| acc.len() + i);
    slots.len()
}
