//! Seeded-defect fixtures: known-bad concurrency protocols the checker
//! MUST find, with traces that replay byte-for-byte.
//!
//! This is the calibration standard for `cargo xtask model-check`: a
//! checker that explores the real tree to exhaustion but cannot detect
//! the torn tmp-file publish of an unsalted `RunCache::put` is vacuous.
#![cfg(dozz_model)]

use dozz_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use dozznoc_modelcheck::{explore, replay, Config, FindingKind, RaceCell};

fn cfg() -> Config {
    Config {
        preemption_bound: Some(2),
        ..Config::default()
    }
}

/// The unsalted `RunCache::put`: no tmp-name salt, so two concurrent
/// writers of one key write *the same* tmp file before renaming it
/// into place — a torn entry the checker must flag as a data race.
fn torn_tmp_publish() {
    let tmp = RaceCell::new("shared-tmp-file", 0u64);
    let published = AtomicUsize::new(0);
    dozz_sync::thread::scope(|s| {
        for w in 1..=2u64 {
            let (tmp, published) = (&tmp, &published);
            s.spawn(move || {
                tmp.set(100 + w); // both writers tear one tmp file
                published.store(1, Ordering::Release);
            });
        }
    });
    assert_eq!(published.load(Ordering::Acquire), 1);
}

#[test]
fn checker_finds_the_torn_tmp_file_race() {
    let outcome = explore("torn_tmp_publish", &cfg(), &torn_tmp_publish);
    assert_eq!(
        outcome.findings.len(),
        1,
        "the unsalted publish protocol must produce a finding: {outcome:?}"
    );
    let f = &outcome.findings[0];
    assert_eq!(f.kind, FindingKind::DataRace, "finding: {f:?}");
    assert!(
        f.message.contains("shared-tmp-file"),
        "the race names the torn file: {}",
        f.message
    );

    // The trace replays the identical execution: same kind, same
    // message, same schedule, byte for byte.
    let again = replay("torn_tmp_publish", &cfg(), &f.trace, &torn_tmp_publish);
    assert_eq!(again.findings.len(), 1, "replay reproduces: {again:?}");
    assert_eq!(
        serde_json::to_string(&again.findings[0]).expect("finding serializes"),
        serde_json::to_string(f).expect("finding serializes"),
        "replayed finding is byte-identical"
    );
}

/// The *fixed* shape of the fixture stays clean under the identical
/// exploration config — the finding above is a property of the seeded
/// defect, not an artifact of the checker.
#[test]
fn fixed_counterpart_is_clean() {
    let salted = || {
        let t0 = RaceCell::new("tmp-0", 0u64);
        let t1 = RaceCell::new("tmp-1", 0u64);
        let salt = AtomicU64::new(0);
        dozz_sync::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let slot = salt.fetch_add(1, Ordering::SeqCst);
                    if slot == 0 { &t0 } else { &t1 }.set(slot);
                });
            }
        });
    };
    let outcome = explore("salted_tmp_publish", &cfg(), &salted);
    assert!(outcome.clean(), "salted publish protocol: {outcome:?}");
}
