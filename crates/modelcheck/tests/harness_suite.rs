//! The registry-level guarantees behind `cargo xtask model-check`.
//!
//! Model build (`--cfg dozz_model`): every registered harness explores
//! its interleaving tree to exhaustion with zero findings — the same
//! gate CI applies, pinned here so a harness that stops exhausting (or
//! regresses) fails `cargo test` too, not just the xtask.
//!
//! Std build: the identical bodies loop on real OS threads. That is the
//! nightly TSan target — the model checker covers the interleavings a
//! 1-core host never exhibits, TSan covers the compiled-code axis the
//! model abstracts away.

#[cfg(dozz_model)]
mod model {
    use dozznoc_modelcheck::harness::harnesses;
    use dozznoc_modelcheck::{explore, Config};

    #[test]
    fn every_registered_harness_exhausts_clean() {
        for h in harnesses() {
            let cfg = Config {
                preemption_bound: h.preemption_bound,
                max_executions: h.max_executions,
                ..Config::default()
            };
            let outcome = explore(h.name, &cfg, &h.body);
            assert!(
                outcome.clean(),
                "harness {} must exhaust with no findings: {outcome:?}",
                h.name
            );
            assert!(
                outcome.executions > 1,
                "{}: a harness with a single \
                 interleaving is exercising no concurrency",
                h.name
            );
        }
    }

    #[test]
    fn registry_names_are_unique_and_stable() {
        let mut names: Vec<_> = harnesses().iter().map(|h| h.name).collect();
        names.sort_unstable();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped, "duplicate harness names break replay specs");
        assert_eq!(
            names,
            ["cache_publish", "cursor_unique"],
            "harness names are part of the frozen report/replay surface; \
             additions are fine but update this pin deliberately"
        );
    }
}

#[cfg(not(dozz_model))]
mod std_stress {
    use dozznoc_modelcheck::harness::harnesses;

    /// Loop every harness body on real threads. Under plain `cargo
    /// test` this is a cheap smoke check that the bodies are sound as
    /// ordinary concurrent code; under the nightly TSan job the same
    /// loop gives the sanitizer enough schedules to bite on.
    #[test]
    fn harness_bodies_run_on_real_threads() {
        let iters: usize = std::env::var("DOZZNOC_STRESS_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(25);
        for h in harnesses() {
            for _ in 0..iters {
                (h.body)();
            }
        }
    }
}
