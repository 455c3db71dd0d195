//! `dozz-repro` — regenerate every table and figure of the DozzNoC paper.
//!
//! ```text
//! dozz-repro <command> [--quick] [--out DIR] [--seed N] [--jobs N] [--no-cache]
//!
//! commands:
//!   table1            LDO dropout ranges (Table I)
//!   table2            measured switch-latency matrix (Table II)
//!   table3            T-Switch/T-Wakeup/T-Breakeven cycle costs (Table III)
//!   table4            the reduced feature set (Table IV)
//!   table5            DSENT static/dynamic cost model (Table V)
//!   fig5              LDO transient waveforms (Fig. 5)
//!   fig6              SIMO vs baseline power efficiency (Fig. 6)
//!   fig7              DVFS mode distribution per benchmark (Fig. 7)
//!   fig8              throughput + normalized energy, compressed & uncompressed (Fig. 8)
//!   fig9              single-feature mode-selection accuracy (Fig. 9)
//!   headline          §IV-B summary numbers, mesh + cmesh
//!   sweep-epoch       epoch-size sweep 100–1000 (§IV-B)
//!   overhead          ML label-generation overhead (§III-D)
//!   ablation-features DOZZNOC-5 vs DOZZNOC-41 (§IV-B.1)
//!   ablation-gating   wake-punch and T-Idle mechanism ablations
//!   ablation-proactive reactive vs ML vs oracle mode selection
//!   scale             8×8-trained model on 4×4…16×16 meshes
//!   ablation-online   offline ridge vs online-adaptive RLS under drift
//!   latency           network-latency percentiles per model
//!   timeline          per-router mode/energy time-series via telemetry
//!   tournament        every registered policy ranked head-to-head
//!   check             run the evaluation matrix under the invariant sanitizer
//!   bench-cell        one measured cell of the `cargo xtask bench` regime matrix
//!   transition-cost   rail-transition energy vs the savings it erodes
//!   routing           XY vs YX dimension-order sensitivity
//!   all               everything above, sharing one training pass
//! ```
//!
//! `--quick` shortens traces (4 µs instead of 50 µs) for smoke runs.
//! Campaign matrices run on `--jobs N` worker threads (default: every
//! available core, or the `DOZZ_JOBS` env var) and replay previously
//! simulated cells from the content-addressed run cache under
//! `<out>/.runcache/`; `--no-cache` forces every cell to simulate.
//! Results print as paper-style rows and are also written as CSV under
//! `--out` (default `results/`).

mod ablations;
mod bench_cell;
mod check;
mod ctx;
mod engine;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod headline;
mod latency;
mod overhead;
mod scale;
mod suite;
mod sweep;
mod tables;
mod timeline;
mod tournament;

use ctx::Ctx;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    if command == "bench-cell" {
        // Parses its own (disjoint) flag surface; bypasses Ctx, which
        // treats unknown flags as fatal.
        bench_cell::run(&args[1..]);
        return;
    }
    let ctx = Ctx::from_args(&args[1.min(args.len())..]);

    let started = std::time::Instant::now();
    match command {
        "table1" => tables::table1(&ctx),
        "table2" => tables::table2(&ctx),
        "table3" => tables::table3(&ctx),
        "table4" => tables::table4(&ctx),
        "table5" => tables::table5(&ctx),
        "fig5" => fig5::run(&ctx),
        "fig6" => fig6::run(&ctx),
        "fig7" => fig7::run(&ctx),
        "fig8" => fig8::run(&ctx),
        "fig9" => fig9::run(&ctx),
        "headline" => headline::run(&ctx),
        "sweep-epoch" => sweep::run(&ctx),
        "overhead" => overhead::run(&ctx),
        "transition-cost" => overhead::transitions(&ctx),
        "ablation-features" => headline::ablation_features(&ctx),
        "ablation-gating" => ablations::gating(&ctx),
        "ablation-proactive" => ablations::proactive(&ctx),
        "scale" => scale::run(&ctx),
        "ablation-online" => ablations::online(&ctx),
        "routing" => ablations::routing(&ctx),
        "latency" => latency::run(&ctx),
        "timeline" => timeline::run(&ctx),
        "tournament" => tournament::run(&ctx),
        "check" => check::run(&ctx),
        "all" => {
            tables::table1(&ctx);
            tables::table2(&ctx);
            tables::table3(&ctx);
            tables::table4(&ctx);
            tables::table5(&ctx);
            fig5::run(&ctx);
            fig6::run(&ctx);
            overhead::run(&ctx);
            fig7::run(&ctx);
            fig8::run(&ctx);
            fig9::run(&ctx);
            headline::run(&ctx);
            headline::ablation_features(&ctx);
            ablations::gating(&ctx);
            ablations::proactive(&ctx);
            scale::run(&ctx);
            ablations::online(&ctx);
            latency::run(&ctx);
            overhead::transitions(&ctx);
            ablations::routing(&ctx);
            sweep::run(&ctx);
        }
        "help" | "--help" | "-h" => {
            eprint!("{}", HELP);
            return;
        }
        other => {
            eprintln!("unknown command `{other}`\n{HELP}");
            std::process::exit(2);
        }
    }
    eprintln!("\n[{command} finished in {:.1?}]", started.elapsed());
}

const HELP: &str = "\
dozz-repro — regenerate the DozzNoC paper's tables and figures

usage: dozz-repro <command> [--quick] [--out DIR] [--seed N] [--jobs N] [--no-cache]
       dozz-repro timeline [--bench NAME] [--model NAME] [flags above]
       dozz-repro tournament [flags above]
       dozz-repro check [--bench NAME] [flags above]
       dozz-repro bench-cell --regime R --topo T --jobs N [--duration-ns D] [--seed S] [--traces K]

--model accepts any registered policy: paper slugs and aliases plus
plug-in specs like `rl-buffer?epsilon=0.2&seed=9`; `tournament` ranks
all of them (energy, latency, throughput, EDP, per-benchmark wins).

campaign matrices run on --jobs N workers (default: all cores, or the
DOZZ_JOBS env var) with a content-addressed run cache under
<out>/.runcache/; --no-cache forces every cell to simulate.

commands: table1 table2 table3 table4 table5 fig5 fig6 fig7 fig8 fig9
          headline sweep-epoch overhead ablation-features ablation-gating
          ablation-proactive ablation-online scale latency timeline
          tournament check transition-cost routing all
";
