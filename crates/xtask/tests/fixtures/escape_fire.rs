//! Fixture: closures handed to the thread-spawn point capture state
//! that must not cross a thread boundary — single-threaded interior
//! mutability and a `&mut` parameter.

use std::cell::RefCell;
use std::num::NonZeroUsize;

pub fn run_indexed<T>(_jobs: NonZeroUsize, _count: usize, _task: impl Fn(usize) -> T) -> Vec<T> {
    Vec::new()
}

pub fn fan_out_with_refcell(jobs: NonZeroUsize) -> u64 {
    let scratch = RefCell::new(0u64);
    let results = run_indexed(jobs, 8, |i| {
        *scratch.borrow_mut() += i as u64;
        i as u64
    });
    results.iter().sum::<u64>() + *scratch.borrow()
}

pub fn fan_out_with_mut_ref(jobs: NonZeroUsize, acc: &mut Vec<u64>) -> usize {
    let slots = run_indexed(jobs, 4, |i| acc.len() + i);
    slots.len()
}
