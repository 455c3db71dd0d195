#!/usr/bin/env python3
"""The repository benchmark: runs its workloads against the release
`dozz-repro` binary, checks their outputs and prints every metric.

    python3 perfbench/run.py --workload <headline|saturation|light|all> \\
        [--seed N] [--seconds S] [--trace 0|1] [--save FILE]
    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

Run it from anywhere inside a checkout; it builds `dozz-repro` and
the tracer (perfbench/tracer) into $CARGO_TARGET_DIR (default
`.bench_build`). With `--trace 0` it times the untraced program and
reports the end-to-end metrics; with `--trace 1` it alternates untraced
and traced repetitions and reports the per-layer metrics. The last
line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "work"
# Every command is killed after this many seconds, so a hung program
# still lets the benchmark exit (failed) inside its 180-second limit.
RUN_DEADLINE_S = 170.0
# How often a watched command's VmHWM is read while it runs.
RSS_POLL_S = 0.02

# bench-cell sizing for the two regime workloads: two regime traces of
# bench-cell's default horizon per topology and repetition.
REGIME_TRACES = 2
REGIME_DURATION_NS = 8_000
TOPOLOGIES = ("mesh8x8", "cmesh4x4")
WORKLOADS = ("headline", "saturation", "light")
TRACER_TOPOLOGY = {"mesh": "mesh8x8", "cmesh": "cmesh4x4"}
# Set-ups and warm reruns timed per headline cycle (their medians are
# reported; one alone does not repeat within a tenth).
HEADLINE_SETUPS = 20
HEADLINE_RERUNS = 10
HEADLINE_CELLS = 2 * 5 * 5

# Host-speed scaling. On a shared host the speed of one instruction
# stream drifts by 10-30 % within minutes (other tenants on sibling
# hyperthreads and shared caches), and every timing moves with it. So a
# run times CAL_SAMPLES passes of a fixed probe loop (perfbench/calibrate)
# when it starts and after each timed command, and reports its times
# multiplied by its host factor, CAL_REF_S over the run's median pass
# time: seconds on a host where a pass takes CAL_REF_S. One factor per
# run, not one per command: a command's own ten passes are too few to
# scale it by, and a 13-second command moves with the host while they
# are not taken. The probe is a separate program with no dependencies,
# so it compiles the same on every commit and a slower program still
# reads slower. It is compiled, not an interpreter loop, because an
# interpreter's speed on one loop differs by up to 30 % between its
# processes. The unscaled times are printed beside, ungated.
CAL_SAMPLES = 5
CAL_REF_S = 0.025
# How each end-to-end metric scales with the host factor: times by it,
# rates by its inverse, memory not at all.
SCALED = {"run_s": 1, "rerun_s": 1, "setup_s": 1, "cpu_s": 1, "sim_cycles_per_s": -1}

# Paper savings (static, dynamic, throughput loss, latency increase, %)
# printed beside the headline CSVs; the model is otherwise unvalidated.
PAPER = {
    "mesh": {
        "PG": (47.0, 0.0, 9.0, 5.0),
        "ML+DVFS (LEAD-tau)": (25.0, 25.0, 3.0, 1.0),
        "DOZZNOC (ML+DVFS+PG)": (53.0, 25.0, 7.0, 3.0),
        "ML+TURBO": (52.0, 21.0, 7.0, 3.0),
    },
    "cmesh": {"DOZZNOC (ML+DVFS+PG)": (39.0, 18.0, 5.0, 2.0)},
}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Proc:
    """A finished child process: wall and CPU time, context switches
    (from wait4's rusage), peak RSS if it was watched, exit status and
    standard output."""

    def __init__(self, wall_s, rc, ru, peak_mib, stdout):
        self.wall_s = wall_s
        self.rc = rc
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.peak_mib = peak_mib
        self.nvcsw = ru.ru_nvcsw
        self.nivcsw = ru.ru_nivcsw
        self.stdout = stdout


def vm_hwm_mib(status_fd):
    """VmHWM in MiB from an open /proc/<pid>/status, or 0 once the
    process is gone (the descriptor stays bound to that process)."""
    try:
        text = os.pread(status_fd, 8192, 0).decode()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def watch_rss(status_fd, stop, peak):
    """Sample a process's VmHWM every RSS_POLL_S until `stop` is set.
    wait4's ru_maxrss cannot serve: at exec a child inherits the
    high-water mark of the (v)forking Python process."""
    while True:
        peak[0] = max(peak[0], vm_hwm_mib(status_fd))
        if stop.wait(RSS_POLL_S):
            break


def run_proc(argv, log_dir, name, watch=False):
    """Run argv to completion (killed after RUN_DEADLINE_S) and measure
    it; with `watch`, also sample its peak RSS."""
    out_path, err_path = log_dir / f"{name}.out", log_dir / f"{name}.err"
    stop, peak = threading.Event(), [0.0]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err)
        watcher = None
        if watch:
            # Opened before the child can be reaped, so it cannot name another process.
            status_fd = os.open(f"/proc/{p.pid}/status", os.O_RDONLY)
            watcher = threading.Thread(target=watch_rss, args=(status_fd, stop, peak))
            watcher.start()
        signal.signal(signal.SIGALRM, lambda *_: p.kill())
        signal.setitimer(signal.ITIMER_REAL, RUN_DEADLINE_S)
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
        if watcher:
            stop.set()
            watcher.join()
            os.close(status_fd)
    # Reaped by wait4 (for its rusage); tell Popen so it does not poll again.
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, p.returncode, ru, peak[0], out_path.read_bytes())


def build(target_dir):
    """Build dozz-repro, the tracer and the host-speed probe; exit 2
    without a result on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    for argv in (
        ["cargo", "build", "--release", "--offline", "-p", "dozznoc-experiments", "--bin", "dozz-repro"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH_DIR / "tracer" / "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH_DIR / "calibrate" / "Cargo.toml")],
    ):
        if subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            log(f"perfbench: build failed: {' '.join(argv)}")
            sys.exit(2)
    return tuple(target_dir / "release" / name for name in ("dozz-repro", "perfbench-tracer", "perfbench-calibrate"))


def read_first(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unavailable"


def environment():
    """The host facts a result set must carry to be comparable."""

    def cmd(argv):
        try:
            r = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
            return r.stdout.strip() if r.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            return None

    rev = "unknown (not a git checkout)"
    if cmd(["git", "rev-parse", "--show-toplevel"]) == str(ROOT):
        rev = cmd(["git", "rev-parse", "--short=12", "HEAD"]) or "unknown"
        if cmd(["git", "status", "--porcelain", "--untracked-files=no"]):
            rev += "-dirty"
    cpu_max = read_first("/sys/fs/cgroup/cpu.max")
    if cpu_max == "unavailable":  # cgroup v1
        quota = read_first("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        period = read_first("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        cpu_max = f"{quota} {period}" if quota != "unavailable" else quota
    mem_max = read_first("/sys/fs/cgroup/memory.max")
    if mem_max == "unavailable":
        mem_max = read_first("/sys/fs/cgroup/memory/memory.limit_in_bytes")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "cgroup_memory_max": mem_max,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "rustc": cmd(["rustc", "--version"]) or "unknown",
        "git_rev": rev,
    }


def snapshot(directory):
    """(name, size, mtime) of every file under `directory`."""
    if not directory.exists():
        return []
    return sorted(
        (str(p.relative_to(directory)), p.stat().st_size, p.stat().st_mtime_ns)
        for p in directory.rglob("*")
        if p.is_file()
    )


class Run:
    """Samples, checks and modelled numbers gathered by one invocation;
    `probe` is the host-speed probe that scales its times."""

    def __init__(self, probe):
        self.probe = probe
        self.samples = {}
        self.passes = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = []
        self.reps = []
        self.modelled = {}

    def sample(self, metric, value):
        self.samples.setdefault(metric, []).append(value)

    def calibrate(self):
        """Time CAL_SAMPLES passes of the host-speed probe."""
        argv = [str(self.probe), str(CAL_SAMPLES)]
        out = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True).stdout
        self.passes += [float(x) for x in out.split()]

    def host_factor(self):
        """Scale from this run's host speed to the reference host's."""
        return CAL_REF_S / stats.median(self.passes)

    def scaled(self):
        """The samples with every time and rate scaled by the host factor."""
        f = self.host_factor()
        return {n: [v * f ** SCALED.get(n, 0) for v in vs] for n, vs in self.samples.items()}

    def cells(self, n, ok, why=""):
        """Account for n cells of one command; all fail when `ok` is false."""
        self.attempted += n
        if not ok:
            self.fail(n, why)

    def fail(self, n, why):
        """Fail n already-attempted cells."""
        self.failed += n
        self.problems.append(why)
        log(f"perfbench: check failed: {why}")

    def digest(self, d, n):
        """Record a repetition's sim_digest; it must equal the first one."""
        if self.digests and d != self.digests[0]:
            self.fail(n, f"sim_digest {d} differs from {self.digests[0]}")
        self.digests.append(d)

    def rep(self, label, procs):
        self.reps.append(
            (label, [(name, p.wall_s, p.cpu_s, p.nvcsw, p.nivcsw) for name, p in procs])
        )


def finite_row(row):
    try:
        return all(math.isfinite(float(x)) for x in row)
    except ValueError:
        return False


def check_headline_csv(text):
    """Problems with one headline CSV: five finite model rows, Baseline
    first and all zero."""
    lines = text.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != 5:
        return [f"{len(rows)} model rows, expected 5"]
    problems = [f"row {r[0]} is not finite" for r in rows if not finite_row(r[1:])]
    if rows[0][0] != "Baseline" or any(float(x) != 0.0 for x in rows[0][1:] if finite_row([x])):
        problems.append("Baseline row is not first and all zero")
    return problems


def headline_records(out_dir):
    """Per-cell simulated outcomes from the run cache the command wrote."""
    records = []
    for path in sorted((out_dir / ".runcache").glob("*.json")):
        r = json.loads(path.read_text())["report"]
        records.append(
            {
                "policy": r["policy"],
                "trace": r["trace"],
                "finished_at": r["finished_at"],
                "packets_injected": r["stats"]["packets_injected"],
                "packets_delivered": r["stats"]["packets_delivered"],
                "flits_delivered": r["stats"]["flits_delivered"],
                "epochs": r["stats"]["epochs"],
                "static_j": r["energy"]["static_j"],
                "dynamic_j": r["energy"]["dynamic_j"],
            }
        )
    return records


def headline_cycle(run, binary, seed, jobs, work, tag):
    """Set up a fresh output directory, run the cold command, then rerun
    it warm on the same directory. Returns the cold Proc (None if it
    failed) and the cells' records."""
    out = work / f"{tag}-out"
    # The set-up makes the cold run's fresh output directory and starts
    # the binary once with `help` (no work), so the cold run does not
    # pay for paging it in. A bare mkdir (tens of microseconds) follows
    # the shared disk's journal and is too noisy to hold a bound. It is
    # done (and all but the last time undone) HEADLINE_SETUPS times.
    for k in range(HEADLINE_SETUPS):
        if k:
            out.rmdir()
        t0 = time.perf_counter()
        out.mkdir()
        probe = run_proc([str(binary), "help"], work, f"{tag}-setup{k}")
        run.sample("setup_s", time.perf_counter() - t0)
        if probe.rc != 0:
            run.cells(HEADLINE_CELLS, False, f"`dozz-repro help` exited {probe.rc}")
            return None, []
    run.calibrate()
    argv = [str(binary), "headline", "--quick", "--jobs", str(jobs), "--seed", str(seed), "--out", str(out)]
    cold = run_proc(argv, work, f"{tag}-cold", watch=True)
    run.calibrate()
    if cold.rc != 0:
        run.cells(HEADLINE_CELLS, False, f"cold headline exited {cold.rc}")
        return None, []
    csvs = {t: (out / f"headline_{t}.csv").read_text() for t in ("mesh", "cmesh")}
    problems = [f"{t}: {p}" for t, text in csvs.items() for p in check_headline_csv(text)]
    if cold.peak_mib <= 0:
        problems.append("the cold command's peak RSS could not be read")
    records = headline_records(out)
    if len(records) != HEADLINE_CELLS:
        problems.append(f"{len(records)} cached cells, expected {HEADLINE_CELLS}")
    problems += [
        f"{r['policy']} on {r['trace']} delivered {r['packets_delivered']} of {r['packets_injected']} packets"
        for r in records
        if r["packets_delivered"] != r["packets_injected"]
    ]
    run.cells(HEADLINE_CELLS, not problems, "; ".join(problems))
    run.digest(stats.digest(records), HEADLINE_CELLS)
    run.sample("run_s", cold.wall_s)
    run.sample("cpu_s", cold.cpu_s)
    run.sample("peak_rss_mib", cold.peak_mib)
    run.sample("sim_cycles_per_s", sum(r["finished_at"] for r in records) / cold.wall_s)
    procs = [("cold", cold)]
    for k in range(HEADLINE_RERUNS):
        warm = run_proc(argv, work, f"{tag}-warm{k}")
        same = warm.rc == 0 and warm.stdout == cold.stdout and all(
            (out / f"headline_{t}.csv").read_text() == text for t, text in csvs.items()
        )
        run.cells(HEADLINE_CELLS, same, f"warm rerun {k} exited {warm.rc} or differs from cold")
        run.sample("rerun_s", warm.wall_s)
        procs.append((f"warm{k}", warm))
    run.calibrate()
    run.rep(tag, procs)
    run.modelled = {"csvs": csvs, "records": records}
    return cold, records


def regime_rep(run, binary, workload, seed, work, tag):
    """Both topologies' bench-cell commands. Returns the engine seconds
    (None on failure) and the per-topology records."""
    run_s = cpu_s = setup_s = wall_s = cycles = 0.0
    rss, records, procs = 0.0, [], []
    cells = 3 * REGIME_TRACES
    for topo in TOPOLOGIES:
        argv = [
            str(binary), "bench-cell", "--regime", workload, "--topo", topo, "--jobs", "1",
            "--traces", str(REGIME_TRACES), "--duration-ns", str(REGIME_DURATION_NS), "--seed", str(seed),
        ]
        p = run_proc(argv, work, f"{tag}-{topo}")
        run.calibrate()
        procs.append((topo, p))
        try:
            out = json.loads(p.stdout.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            out = None
        ok = (
            p.rc == 0 and out is not None and out["engine_cells"] == cells
            and out["flits"] > 0 and out["max_rss_bytes"] > 0
        )
        run.cells(cells, ok, f"bench-cell {topo} exited {p.rc} or printed a bad result")
        if not ok:
            return None, []
        engine_s = out["wall_ms"] / 1e3
        run_s += engine_s
        cpu_s += out["cpu_s"]
        setup_s += p.wall_s - engine_s
        wall_s += p.wall_s
        cycles += out["sim_cycles"]
        # VmHWM, reset just before the engine starts: the engine run's peak.
        rss = max(rss, out["max_rss_bytes"] / 2**20)
        records.append({"topology": topo, "cells": cells, "sim_cycles": out["sim_cycles"], "flits": out["flits"]})
    run.digest(stats.digest(records), 2 * cells)
    for metric, value in (
        ("run_s", run_s), ("rerun_s", wall_s), ("setup_s", setup_s), ("cpu_s", cpu_s),
        ("peak_rss_mib", rss), ("sim_cycles_per_s", cycles / run_s),
    ):
        run.sample(metric, value)
    run.rep(tag, procs)
    run.modelled = {"records": records}
    return run_s, records


def untraced_rep(run, binary, workload, seed, jobs, work, tag):
    """One untraced repetition; returns (unscaled run seconds or None,
    digest records)."""
    if workload == "headline":
        cold, records = headline_cycle(run, binary, seed, jobs, work, tag)
        return (cold.wall_s if cold else None), records
    return regime_rep(run, binary, workload, seed, work, tag)


def traced_rep(run, tracer, workload, seed, jobs, work, tag):
    """One traced repetition; returns (trace document, records to digest)."""
    out = work / f"{tag}-trace"
    argv = [str(tracer), workload, "--seed", str(seed), "--jobs", str(jobs), "--out", str(out)]
    if workload != "headline":
        argv += ["--traces", str(REGIME_TRACES), "--duration-ns", str(REGIME_DURATION_NS)]
    p = run_proc(argv, work, tag)
    cells = HEADLINE_CELLS if workload == "headline" else 6 * REGIME_TRACES
    if p.rc != 0:
        run.cells(cells, False, f"tracer exited {p.rc}")
        return None, []
    doc = json.loads((out / "trace.json").read_text())
    run.cells(len(doc["cells"]), not doc["failures"], "; ".join(doc["failures"]))
    run.rep(tag, [("traced", p)])
    if workload == "headline":
        records = [{k: v for k, v in c.items() if k != "topology"} for c in doc["cells"]]
    else:
        records = []
        for short, topo in TRACER_TOPOLOGY.items():
            mine = [c for c in doc["cells"] if c["topology"] == short]
            records.append(
                {
                    "topology": topo,
                    "cells": len(mine),
                    "sim_cycles": sum(c["finished_at"] for c in mine),
                    "flits": sum(c["flits_delivered"] for c in mine),
                }
            )
    return doc, records


def measure(args, workload, programs, work):
    """Repeat the workload for `--seconds` and gather samples."""
    binary, tracer, probe = programs
    run = Run(probe)
    run.calibrate()
    jobs = len(os.sched_getaffinity(0)) if workload == "headline" else 1
    t0, k = time.perf_counter(), 0
    layers, overheads, docs = {}, [], []
    while True:
        rep_start = time.perf_counter()
        # Each repetition writes into a new, empty directory that is
        # deleted after it, so every set-up starts from the same state.
        rep = work / f"r{k}"
        rep.mkdir()
        run_s, records = untraced_rep(run, binary, workload, args.seed, jobs, rep, f"r{k}")
        if args.trace:
            doc, traced_records = traced_rep(run, tracer, workload, args.seed, jobs, rep, f"t{k}")
            if doc is not None:
                docs.append(doc)
                if stats.digest(traced_records) != stats.digest(records):
                    run.fail(len(doc["cells"]), "traced sim_digest differs from untraced")
                for name, value in stats.layer_metrics(doc).items():
                    layers.setdefault(name, []).append(value)
                if run_s is not None:
                    overheads.append(stats.phase_seconds(doc, "run") - run_s)
        shutil.rmtree(rep)
        k += 1
        elapsed = time.perf_counter() - t0
        if run.failed or elapsed + (time.perf_counter() - rep_start) > args.seconds:
            break
    if args.trace:
        layers["trace.overhead_s"] = overheads or [0.0]
    return run, layers, docs


def summary_line(name, unit, values):
    q1, med, q3 = stats.quartiles(values)
    tail = stats.tail_percentile(values)
    tail_s = f"p{tail[0]}={tail[1]:.6g}" if tail else "tail n/a (n<20)"
    return f"  {name:<22} {unit:<9} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} n {len(values):<3} {tail_s}"


def print_modelled(run, workload, docs):
    print("modelled design (simulated; not gated, and otherwise unvalidated: ROADMAP item 4 owns fidelity bands):")
    print(f"  sim_digest {run.digests[0] if run.digests else 'none'} over {len(run.digests)} repetition(s)")
    recs = run.modelled.get("records", [])
    if workload == "headline":
        print(
            f"  cycles {sum(r['finished_at'] for r in recs)}  flits {sum(r['flits_delivered'] for r in recs)}  "
            f"static_j {sum(r['static_j'] for r in recs):.6g}  dynamic_j {sum(r['dynamic_j'] for r in recs):.6g}"
        )
        for topo, text in run.modelled.get("csvs", {}).items():
            print(f"  {topo}: savings %  static / dynamic / tput-loss / lat-incr   (paper; gap)")
            for row in [line.split(",") for line in text.strip().splitlines()[1:]]:
                ours = [float(x) for x in row[1:5]]
                paper = PAPER[topo].get(row[0])
                ref = (
                    "  (" + " / ".join(f"{p:g}" for p in paper) + "; gap "
                    + " / ".join(f"{o - p:+.1f}" for o, p in zip(ours, paper)) + ")"
                    if paper else ""
                )
                print(f"    {row[0]:<22} " + " / ".join(f"{o:.1f}" for o in ours) + ref)
    else:
        print(
            f"  cycles {sum(r['sim_cycles'] for r in recs)}  flits {sum(r['flits'] for r in recs)}"
        )
        if docs:
            cells = docs[-1]["cells"]
            print(
                f"  static_j {sum(c['static_j'] for c in cells):.6g}  "
                f"dynamic_j {sum(c['dynamic_j'] for c in cells):.6g}  (from the traced run)"
            )
        else:
            print("  static/dynamic J: bench-cell does not print energy; run with --trace 1")


def print_layers(docs):
    """Self time per layer and top-level phase of the last traced run."""
    doc = docs[-1]
    table = stats.self_time_by_layer(doc["spans"])
    phases = [s["name"] for s in doc["spans"] if s["parent"] is None]
    print("traced split (self seconds by phase, last traced repetition):")
    print("  " + f"{'layer':<22}" + "".join(f"{p:>12}" for p in phases))
    for name in sorted(table):
        print("  " + f"{name:<22}" + "".join(f"{table[name].get(p, 0.0):>12.4f}" for p in phases))


def compare(paths):
    """A/B two files of saved runs (parent first), refusing to mix core counts."""
    sides = [[json.loads(line) for line in Path(p).read_text().splitlines() if line.strip()] for p in paths]
    cores = {r["env"]["nproc"] for side in sides for r in side}
    if len(cores) != 1:
        log(f"perfbench: refusing to compare result sets taken on different core counts: {sorted(cores)}")
        return 2
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    print(f"parent {paths[0]} vs change {paths[1]} (nproc {cores.pop()})")
    for workload in dict.fromkeys(r["workload"] for r in sides[0]):
        for m in metrics:
            a, b = (
                [r["values"][m["name"]] for r in side if r["workload"] == workload and m["name"] in r["values"]]
                for side in sides
            )
            if not a or not b:
                continue
            (q1a, ma, q3a), (q1b, mb, q3b) = stats.quartiles(a), stats.quartiles(b)
            change = (mb - ma) / ma if ma else 0.0
            lower = m["better"] == "lower"
            wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
            verdict = ""
            if "bound" in m:
                worse = change if lower else -change
                if ma and (q3a - q1a) / ma > m["bound"]:
                    verdict = "unresolved: parent spread exceeds the bound"
                elif worse > m["bound"]:
                    verdict = "WORSE than the bound"
                else:
                    verdict = "within the bound"
            print(
                f"  {workload:<10} {m['name']:<22} {ma:.6g} [{q1a:.6g}, {q3a:.6g}] n {len(a)} -> "
                f"{mb:.6g} [{q1b:.6g}, {q3b:.6g}] n {len(b)}  {change:+.1%}  wins {wins}/{min(len(a), len(b))}  {verdict}"
            )
    return 0


def run_workload(args, workload, programs, env):
    """Measure one workload, print its report and return its result set."""
    results_before = snapshot(ROOT / "results")
    work = WORK_DIR / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run, layers, docs = measure(args, workload, programs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if snapshot(ROOT / "results") != results_before:
        run.fail(run.attempted - run.failed, "the run wrote under results/")

    print(f"perfbench {workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for label, procs in run.reps:
        print(f"  rep {label}: " + "; ".join(
            f"{n} wall {w:.3f}s cpu {c:.3f}s ctxsw {v}/{i}" for n, w, c, v, i in procs))
    scaled = run.scaled()
    print(f"end-to-end (untraced; times scaled by the run's host factor {run.host_factor():.6g}):")
    for name, unit in E2E_UNITS.items():
        if name in scaled:
            print(summary_line(name, unit, scaled[name]))
    print("unscaled (ungated):")
    print(summary_line("probe_pass", "s", run.passes))
    for name in SCALED:
        if name in run.samples:
            print(summary_line(name, E2E_UNITS[name], run.samples[name]))
    print(f"  ops {run.attempted}  failed_ops {run.failed}")
    for problem in run.problems:
        print(f"  FAILED: {problem}")
    print_modelled(run, workload, docs)
    if args.trace and docs:
        print_layers(docs)
        print("per-layer (traced):")
        for name, values in layers.items():
            print(summary_line(name, LAYER_UNITS[name], values))
    samples = layers if args.trace else scaled
    return {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "values": {n: stats.median(v) for n, v in samples.items()},
        "units": {n: (LAYER_UNITS if args.trace else E2E_UNITS)[n] for n in samples},
        "samples": samples,
        "attempted": run.attempted,
        "failed": run.failed,
        "sim_digests": run.digests,
        "host_factor": run.host_factor(),
        "unscaled": {n: run.samples[n] for n in SCALED if n in run.samples},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="append each workload's result set (env, samples) as a JSON line")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"), help="A/B two --save files")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(args.compare)
    if not args.workload:
        ap.error("--workload is required")
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        log(f"perfbench: {ROOT} is not a checkout of the repository")
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    programs = build(target if target.is_absolute() else ROOT / target)
    env = environment()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    sets = [run_workload(args, w, programs, env) for w in workloads]
    if args.save:
        with open(args.save, "a") as f:
            f.writelines(json.dumps(s) + "\n" for s in sets)
    # With --workload all, metric names carry their workload.
    prefix = (lambda s: s["workload"] + ".") if len(sets) > 1 else (lambda s: "")
    attempted = sum(s["attempted"] for s in sets)
    failed = sum(s["failed"] for s in sets)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {
            prefix(s) + n: {"value": v, "unit": s["units"][n]} for s in sets for n, v in s["values"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
