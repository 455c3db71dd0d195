//! Shared experiment context: output directory, quick mode, seed,
//! engine parallelism and run-cache control.

use std::fs;
use std::io::Write;
use std::num::NonZeroUsize;
use std::path::PathBuf;

use dozznoc_core::{EngineOptions, RunCache};

/// Parsed command-line context shared by every experiment.
pub struct Ctx {
    /// Output directory for CSV artifacts.
    pub out_dir: PathBuf,
    /// Quick mode: short traces for smoke runs.
    pub quick: bool,
    /// Trace-generator seed.
    pub seed: u64,
    /// Benchmark selector (`--bench`), for commands that run one trace.
    pub bench: Option<String>,
    /// Model selector (`--model`), for commands that run one policy.
    pub model: Option<String>,
    /// Worker threads for campaign matrices (`--jobs N`, or the
    /// `DOZZ_JOBS` env var). `None` uses every available core.
    pub jobs: Option<NonZeroUsize>,
    /// Disable the content-addressed run cache (`--no-cache`): every
    /// cell simulates even when a stored report exists.
    pub no_cache: bool,
}

impl Ctx {
    /// Parse `--quick`, `--out DIR`, `--seed N`, `--bench NAME`,
    /// `--model NAME`, `--jobs N`, `--no-cache` from the argument list.
    /// When `--jobs` is absent, the `DOZZ_JOBS` environment variable is
    /// consulted.
    pub fn from_args(args: &[String]) -> Ctx {
        let mut ctx = Ctx {
            out_dir: PathBuf::from("results"),
            quick: false,
            seed: 0,
            bench: None,
            model: None,
            jobs: None,
            no_cache: false,
        };
        let parse_jobs = |s: &str, origin: &str| -> NonZeroUsize {
            s.parse()
                .unwrap_or_else(|_| panic!("{origin} needs a positive integer, got `{s}`"))
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => ctx.quick = true,
                "--no-cache" => ctx.no_cache = true,
                "--out" => {
                    ctx.out_dir =
                        PathBuf::from(it.next().expect("--out needs a directory argument"))
                }
                "--seed" => {
                    ctx.seed = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--seed needs an integer")
                }
                "--jobs" => {
                    let v = it.next().expect("--jobs needs a worker count");
                    ctx.jobs = Some(parse_jobs(v, "--jobs"));
                }
                "--bench" => {
                    ctx.bench = Some(it.next().expect("--bench needs a benchmark name").clone())
                }
                "--model" => {
                    ctx.model = Some(it.next().expect("--model needs a model name").clone())
                }
                other => panic!("unknown flag `{other}`"),
            }
        }
        if ctx.jobs.is_none() {
            if let Ok(v) = std::env::var("DOZZ_JOBS") {
                ctx.jobs = Some(parse_jobs(&v, "DOZZ_JOBS"));
            }
        }
        ctx
    }

    /// Trace horizon in nanoseconds (shortened by `--quick`).
    pub fn duration_ns(&self) -> u64 {
        if self.quick {
            4_000
        } else {
            50_000
        }
    }

    /// The run cache campaign commands share, under
    /// `<out>/.runcache/` — or `None` with `--no-cache`.
    pub fn run_cache(&self) -> Option<RunCache> {
        (!self.no_cache).then(|| RunCache::open(self.out_dir.join(".runcache")))
    }

    /// Engine options for a campaign run: `--jobs` workers and the
    /// given cache handle.
    pub fn engine_opts<'a>(&self, cache: Option<&'a RunCache>) -> EngineOptions<'a> {
        EngineOptions {
            jobs: self.jobs,
            cache,
            sanitize: false,
            measure: false,
        }
    }

    /// Write a CSV artifact, creating the output directory on demand.
    pub fn write_csv(&self, name: &str, header: &str, rows: &[String]) {
        fs::create_dir_all(&self.out_dir)
            .unwrap_or_else(|e| panic!("cannot create {:?}: {e}", self.out_dir));
        let path = self.out_dir.join(name);
        let mut f =
            fs::File::create(&path).unwrap_or_else(|e| panic!("cannot create {path:?}: {e}"));
        writeln!(f, "{header}").expect("csv write");
        for row in rows {
            writeln!(f, "{row}").expect("csv write");
        }
        eprintln!("  wrote {}", path.display());
    }

    /// Path for cached artifacts (trained model suites).
    pub fn cache_path(&self, name: &str) -> PathBuf {
        self.out_dir.join(name)
    }
}

/// Print a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}
