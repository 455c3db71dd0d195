//! The DFS explorer: drives a harness body through every interleaving
//! (within the configured bounds) and collects [`Outcome`]s.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use dozz_sync::rt_api;

use crate::decisions::Decisions;
use crate::report::{finding_seed, Finding, FindingKind, Outcome};
use crate::runtime::Runtime;

/// Exploration bounds. The defaults fit the in-tree harnesses with a
/// wide margin; `cargo xtask model-check` fails if any harness is *not*
/// exhausted, so raising a bound is an explicit, reviewed act.
#[derive(Debug, Clone)]
pub struct Config {
    /// Hard cap on executions (runaway-tree backstop).
    pub max_executions: u64,
    /// Scheduled operations allowed per execution; exceeding it marks
    /// the execution truncated (and the outcome not clean).
    pub max_steps: usize,
    /// Max context switches away from a runnable thread per execution;
    /// `None` explores the full tree.
    pub preemption_bound: Option<usize>,
    /// Stop after this many findings (default 1: first bug wins).
    pub max_findings: usize,
    /// Optional wall-clock budget.
    pub time_budget_ms: Option<u64>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_executions: 500_000,
            max_steps: 20_000,
            preemption_bound: None,
            max_findings: 1,
            time_budget_ms: None,
        }
    }
}

/// Explorations share one process-wide runtime slot, so they must not
/// overlap (`cargo test` runs tests concurrently).
static EXPLORE_LOCK: Mutex<()> = Mutex::new(());

/// Explore `body` exhaustively (within `cfg` bounds) and report.
pub fn explore(name: &str, cfg: &Config, body: &(dyn Fn() + Sync)) -> Outcome {
    run(name, cfg, None, body)
}

/// Re-run `body` once along a recorded decision `trace`. The execution
/// is byte-for-byte the recorded one; any disagreement surfaces as a
/// [`FindingKind::Divergence`] finding.
pub fn replay(name: &str, cfg: &Config, trace: &str, body: &(dyn Fn() + Sync)) -> Outcome {
    run(name, cfg, Some(trace), body)
}

fn run(name: &str, cfg: &Config, replay_trace: Option<&str>, body: &(dyn Fn() + Sync)) -> Outcome {
    let _serial = EXPLORE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);

    let mut outcome = Outcome {
        harness: name.to_string(),
        executions: 0,
        steps: 0,
        truncated: 0,
        exhausted: false,
        preemption_bound: cfg.preemption_bound.map(|b| b as u64),
        findings: Vec::new(),
    };

    let mut decisions = match replay_trace {
        None => Decisions::explore(),
        Some(t) => match Decisions::replay(t) {
            Ok(d) => d,
            Err(e) => {
                outcome.findings.push(Finding {
                    harness: name.to_string(),
                    kind: FindingKind::Divergence,
                    message: format!("unparseable trace: {e}"),
                    trace: t.to_string(),
                    seed: finding_seed(name, t),
                    schedule: Vec::new(),
                });
                return outcome;
            }
        },
    };

    let rt = Arc::new(Runtime::new());
    rt_api::install(rt.clone());
    // Panics are a working part of exploration (abort unwinds, poison
    // paths, panics-as-findings): keep the default hook from spraying
    // backtraces for every one of them. Restored on exit; safe because
    // EXPLORE_LOCK serializes explorations.
    let saved_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let started = Instant::now();

    loop {
        rt.begin(decisions, cfg.max_steps, cfg.preemption_bound);
        // The root closure runs as model thread 0 on a fresh OS thread;
        // the explorer thread itself only waits for completion.
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                let _ = rt_api::run_model_thread(rt.as_ref(), 0, body);
            });
            let _ = h.join();
        });
        let (summary, d) = rt.end();
        decisions = d;

        outcome.executions += 1;
        outcome.steps += summary.steps as u64;
        outcome.truncated += u64::from(summary.truncated);
        if let Some((kind, message)) = summary.finding {
            let trace = decisions.trace();
            outcome.findings.push(Finding {
                harness: name.to_string(),
                kind,
                message,
                seed: finding_seed(name, &trace),
                trace,
                schedule: summary.schedule,
            });
            if outcome.findings.len() >= cfg.max_findings {
                break;
            }
        }
        if replay_trace.is_some() {
            break;
        }
        if !decisions.backtrack() {
            outcome.exhausted = true;
            break;
        }
        if outcome.executions >= cfg.max_executions {
            break;
        }
        if let Some(ms) = cfg.time_budget_ms {
            if u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX) >= ms {
                break;
            }
        }
    }

    let _ = std::panic::take_hook();
    std::panic::set_hook(saved_hook);
    rt_api::uninstall();
    outcome
}
