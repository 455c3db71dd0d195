//! The real-tree harness registry: small closed-world concurrency
//! scenarios over the *actual* migrated surfaces (`core::schedule`'s
//! work-stealing cursor, the cache's tmp-file publish protocol).
//!
//! Each body is a pure function of the facade decisions the runtime
//! makes — no ambient time, randomness or I/O — so the checker can
//! replay any execution from its trace alone. The same bodies run on
//! real threads in std builds (the nightly TSan job loops them), which
//! is why they live here rather than inside `#[cfg(dozz_model)]`.

use dozz_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use dozz_sync::Mutex;

use dozznoc_core::schedule::{run_indexed, Injector};

use crate::race::RaceCell;

/// One registered model-check scenario.
pub struct Harness {
    /// Registry key (stable: appears in traces, reports and CI logs).
    pub name: &'static str,
    /// What the harness verifies.
    pub about: &'static str,
    /// The scenario; explored under the model, looped under TSan.
    pub body: fn(),
    /// Preemption bound for exploration. The seeded defect this suite
    /// is calibrated against (the torn tmp file of an unsalted cache
    /// publish) needs a single preemption; 2 gives one-preemption-pair
    /// coverage while keeping exhaustion cheap.
    pub preemption_bound: Option<usize>,
    /// Execution cap (a backstop — exhaustion is expected well below).
    pub max_executions: u64,
}

const DEFAULT_BOUND: Option<usize> = Some(2);
const DEFAULT_CAP: u64 = 400_000;

fn harness(name: &'static str, about: &'static str, body: fn()) -> Harness {
    Harness {
        name,
        about,
        body,
        preemption_bound: DEFAULT_BOUND,
        max_executions: DEFAULT_CAP,
    }
}

/// All registered harnesses, in report order.
pub fn harnesses() -> Vec<Harness> {
    vec![
        harness(
            "cursor_unique",
            "work-stealing cursor: every task index is claimed exactly once \
             and lands in its own slot, for any steal interleaving",
            cursor_unique,
        ),
        harness(
            "cache_publish",
            "run-cache publish protocol: salted tmp slots keep concurrent \
             writers of one key from tearing each other's tmp file, and \
             publication release-synchronizes with readers",
            cache_publish,
        ),
    ]
}

/// The real work-stealing scheduler on 2 workers × 3 tasks: every index
/// claimed once, every result in its own slot — plus a direct probe of
/// the injector's claim-exactly-once contract.
fn cursor_unique() {
    let inj = Injector::new(2);
    let claims: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    dozz_sync::thread::scope(|s| {
        let stealers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    while let Some(i) = inj.steal() {
                        claims.lock().expect("claim log poisoned").push(i);
                    }
                })
            })
            .collect();
        for st in stealers {
            st.join().expect("stealer exits");
        }
    });
    let mut claims = claims.into_inner().expect("claim log poisoned");
    claims.sort_unstable();
    assert_eq!(claims, vec![0, 1], "each index claimed exactly once");

    let jobs = std::num::NonZeroUsize::new(2).expect("2 is nonzero");
    let out = run_indexed(jobs, 3, |i| i * 10);
    assert_eq!(out, vec![0, 10, 20], "slots are index-ordered");
}

/// The `RunCache::put` publish protocol (PR 8's fix) as a closed-world
/// model: the salt counter hands each concurrent writer of one key its
/// own tmp slot (`RaceCell` = the file the OS does not order), and the
/// publish store release-synchronizes with a concurrent reader.
fn cache_publish() {
    let salt = AtomicU64::new(0);
    let tmp0 = RaceCell::new("tmp-file-0", 0u64);
    let tmp1 = RaceCell::new("tmp-file-1", 0u64);
    let published = AtomicUsize::new(usize::MAX);
    dozz_sync::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                // Unique tmp name per writer — without this the two
                // writers tear one tmp file (the seeded PR-8 fixture).
                let slot = salt.fetch_add(1, Ordering::SeqCst);
                let tmp = if slot == 0 { &tmp0 } else { &tmp1 };
                tmp.set(100 + slot);
                // "rename(tmp, entry)": last publication wins.
                published.store(slot as usize, Ordering::Release);
            });
        }
        s.spawn(|| {
            // A concurrent get(): whatever is published must read as a
            // complete entry.
            match published.load(Ordering::Acquire) {
                usize::MAX => {} // nothing published yet
                0 => assert_eq!(tmp0.get(), 100, "entry 0 is complete"),
                _ => assert_eq!(tmp1.get(), 101, "entry 1 is complete"),
            }
        });
    });
}
