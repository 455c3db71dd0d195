"""Tests of the benchmark's own arithmetic and checks.

    python3 -m unittest discover -s perfbench

No build is needed: the end-to-end tests drive run.py against a fake
`dozz-repro` and a fake tracer written to a temporary directory.
"""

import contextlib
import io
import json
import os
import stat
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import stats  # noqa: E402

# One script plays all three programs, by the name it is started under.
FAKE_PROGRAM = r'''#!PYTHON
import json, os, sys
from pathlib import Path

args = sys.argv[1:]
def opt(name):
    return args[args.index(name) + 1]

CELL = {"policy": "baseline", "trace": "fft", "finished_at": 1000, "packets_injected": 10,
        "packets_delivered": 10, "flits_delivered": 30, "epochs": 4, "static_j": 1e-6, "dynamic_j": 2e-6}
ROWS = ["Baseline,0.0000,0.0000,0.0000,0.0000,0.0000"] + [
    f"{m},1.0000,2.0000,3.0000,4.0000,5.0000"
    for m in ("PG", "ML+DVFS (LEAD-tau)", "DOZZNOC (ML+DVFS+PG)", "ML+TURBO")]

def headline_cells():
    return [dict(CELL, trace=f"t{i}", finished_at=1000 + i) for i in range(50)]

if Path(sys.argv[0]).name.endswith("calibrate"):
    print("\n".join(["0.025"] * int(args[0])))
elif Path(sys.argv[0]).name.endswith("tracer"):
    out = Path(opt("--out"))
    out.mkdir(parents=True)
    if args[0] == "headline":
        cells = [dict(c, topology="mesh") for c in headline_cells()]
        phases = ["setup", "run", "rerun"]
    else:
        cells = [dict(CELL, topology=t, trace=f"{args[0]}-s0", finished_at=500)
                 for t in ("mesh", "cmesh") for _ in range(3 * int(opt("--traces")))]
        phases = ["setup", "run"]
    spans = [{"id": i, "parent": None, "name": p, "start_ns": 10 * i, "end_ns": 10 * i + 9, "count": 1}
             for i, p in enumerate(phases)]
    spans.append({"id": 9, "parent": 1, "name": "noc.run", "start_ns": 11, "end_ns": 18, "count": 1})
    doc = {"workload": args[0], "wall_ns": 30, "spans": spans, "cells": cells, "failures": [],
           "counts": {"noc.runs": len(cells), "cache.hits": 1, "cache.misses": 1}}
    (out / "trace.json").write_text(json.dumps(doc))
elif args[0] == "help":
    pass
elif args[0] == "headline":
    out = Path(opt("--out"))
    cache = out / ".runcache"
    warm = cache.exists()
    cache.mkdir(exist_ok=True)
    for i, c in enumerate(headline_cells()):
        report = {"policy": c["policy"], "trace": c["trace"], "finished_at": c["finished_at"],
                  "stats": {k: c[k] for k in ("packets_injected", "packets_delivered", "flits_delivered", "epochs")},
                  "energy": {"static_j": c["static_j"], "dynamic_j": c["dynamic_j"]}}
        (cache / f"{i:016x}.json").write_text(json.dumps({"report": report}))
    rows = ROWS
    if warm and os.environ.get("FAKE_WARM_DIFFERS"):
        rows = ROWS[:1] + ["PG,9.0000,2.0000,3.0000,4.0000,5.0000"] + ROWS[2:]
    for topo in ("mesh", "cmesh"):
        (out / f"headline_{topo}.csv").write_text(
            "model,static_save_pct,dyn_save_pct,tput_loss_pct,lat_incr_pct,edp_change_pct\n"
            + "\n".join(rows) + "\n")
    print("headline table")
elif args[0] == "bench-cell":
    cells = 3 * int(opt("--traces"))
    print(json.dumps({"engine_cells": cells, "wall_ms": 12.5, "cpu_s": 0.01, "max_rss_bytes": 4 << 20,
                      "sim_cycles": 500 * cells, "flits": 30 * cells}))
else:
    sys.exit(2)
'''


class OrderStatistics(unittest.TestCase):
    def test_median_and_quartiles(self):
        values = [float(v) for v in range(1, 11)]
        self.assertEqual(stats.median(values), 5.5)
        self.assertEqual(stats.quartiles(values), (2.75, 5.5, 8.25))
        self.assertEqual(stats.quartiles([3.0]), (3.0, 3.0, 3.0))
        self.assertEqual(stats.quartiles([4.0, 2.0]), (1.5, 3.0, 4.5))

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(list(range(19))))
        self.assertEqual(stats.tail_percentile(list(range(1, 21))), (50, 10, 20))
        self.assertEqual(stats.tail_percentile(list(range(1, 101))), (90, 90, 100))
        self.assertEqual(stats.tail_percentile(list(range(1, 201))), (95, 190, 200))
        self.assertEqual(stats.tail_percentile(list(range(1, 1001))), (99, 990, 1000))
        p, value, n = stats.tail_percentile(list(range(1, 10001)))
        self.assertEqual((p, value, n), (99.9, 9990, 10000))
        # The rank, not the input order, decides.
        self.assertEqual(stats.tail_percentile(list(range(100, 0, -1))), (90, 90, 100))


class HostFactor(unittest.TestCase):
    def test_times_and_rates_scale_by_the_median_probe_pass(self):
        r = run.Run(None)
        r.passes = [0.02, 0.06, 0.03, 0.03, 0.9, 0.01]
        f = r.host_factor()
        self.assertAlmostEqual(f, run.CAL_REF_S / 0.03)
        for name, value in (("run_s", 2.0), ("sim_cycles_per_s", 100.0), ("peak_rss_mib", 5.0)):
            r.sample(name, value)
        scaled = r.scaled()
        self.assertAlmostEqual(scaled["run_s"][0], 2.0 * f)
        self.assertAlmostEqual(scaled["sim_cycles_per_s"][0], 100.0 / f)
        self.assertEqual(scaled["peak_rss_mib"], [5.0])
        self.assertEqual(r.samples["run_s"], [2.0])


def span(i, parent, name, start, end, count=1):
    return {"id": i, "parent": parent, "name": name, "start_ns": start, "end_ns": end, "count": count}


class SelfTime(unittest.TestCase):
    def test_nested_and_sibling_children(self):
        spans = [
            span(0, None, "run", 0, 100),
            span(1, 0, "task", 10, 30),  # overlaps its sibling 2
            span(2, 0, "task", 20, 50),
            span(3, 0, "task", 60, 70),
            span(4, 1, "noc.run", 12, 15),  # grandchild of 0
            span(5, 0, "late", 95, 120),  # runs past its parent
        ]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs[0], 100 - 40 - 10 - 5)
        self.assertEqual(selfs[1], 20 - 3)
        self.assertEqual(selfs[2], 30)
        self.assertEqual(selfs[3], 10)
        self.assertEqual(selfs[4], 3)
        self.assertEqual(selfs[5], 25)

    def test_layer_table_groups_by_phase(self):
        spans = [
            span(0, None, "setup", 0, 10),
            span(1, 0, "noc.run", 0, 4),
            span(2, None, "run", 10, 30),
            span(3, 2, "noc.run", 10, 25),
            span(4, 3, "policy.select_mode", 10, 12, count=100),
        ]
        table = stats.self_time_by_layer(spans)
        self.assertAlmostEqual(table["noc.run"]["setup"], 4e-9)
        self.assertAlmostEqual(table["noc.run"]["run"], 13e-9)
        self.assertAlmostEqual(table["policy.select_mode"]["run"], 2e-9)
        self.assertAlmostEqual(table["run"]["run"], 5e-9)

    def test_utilization_and_coverage(self):
        doc = {
            "wall_ns": 100,
            "counts": {},
            "cells": [],
            "spans": [
                span(0, None, "run", 0, 90),
                span(1, 0, "schedule.run_indexed", 0, 80, count=2),
                span(2, 1, "schedule.task", 0, 80),
                span(3, 1, "schedule.task", 0, 40),
            ],
        }
        m = stats.layer_metrics(doc)
        self.assertAlmostEqual(m["schedule.utilization"], 120 / 160)
        self.assertAlmostEqual(m["trace.coverage"], 0.9)
        self.assertEqual(m["cache.hit_ratio"], 0.0)


class Checks(unittest.TestCase):
    def test_headline_csv_rules(self):
        good = "h\nBaseline,0,0,0,0,0\n" + "".join(f"M{i},1,2,3,4,5\n" for i in range(4))
        self.assertEqual(run.check_headline_csv(good), [])
        self.assertTrue(run.check_headline_csv(good.replace("Baseline,0,", "Baseline,1,")))
        self.assertTrue(run.check_headline_csv(good.replace("M0,1,", "M0,nan,")))
        self.assertTrue(run.check_headline_csv("h\nBaseline,0,0,0,0,0\n"))

    def test_digest_ignores_order_only(self):
        a, b = {"x": 1, "y": 2.5}, {"x": 2, "y": 0.1}
        self.assertEqual(stats.digest([a, b]), stats.digest([b, a]))
        self.assertNotEqual(stats.digest([a, b]), stats.digest([a, dict(b, y=0.2)]))


class FakePrograms(unittest.TestCase):
    """run.py end to end against fake programs (no build)."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        tmp = Path(self.tmp.name)
        programs = tuple(tmp / name for name in ("dozz-repro", "perfbench-tracer", "perfbench-calibrate"))
        for path in programs:
            path.write_text(FAKE_PROGRAM.replace("PYTHON", sys.executable, 1))
            path.chmod(path.stat().st_mode | stat.S_IXUSR)
        self.saved = run.build, run.WORK_DIR
        run.build = lambda target: programs
        run.WORK_DIR = tmp / "work"

    def tearDown(self):
        run.build, run.WORK_DIR = self.saved
        os.environ.pop("FAKE_WARM_DIFFERS", None)
        self.tmp.cleanup()

    def result(self, workload, trace):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", workload, "--seconds", "0", "--trace", str(trace)])
        self.assertEqual(code, 0)
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def test_every_benchmark_metric_is_emitted(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                res = self.result(workload, trace)
                self.assertEqual(sorted(res), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(res["correct"], (workload, trace, res))
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                want = {m["name"]: m["unit"] for m in spec[kind]}
                got = {n: m["unit"] for n, m in res["metrics"].items()}
                self.assertEqual(got, want, (workload, trace))

    def test_compare_refuses_mixed_core_counts(self):
        tmp = Path(self.tmp.name)
        for name, nproc in (("a.jsonl", 1), ("b.jsonl", 2)):
            record = {"workload": "light", "env": {"nproc": nproc}, "values": {"run_s": 1.0}}
            (tmp / name).write_text(json.dumps(record) + "\n")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(run.main(["--compare", str(tmp / "a.jsonl"), str(tmp / "b.jsonl")]), 2)
            (tmp / "b.jsonl").write_text((tmp / "a.jsonl").read_text())
            self.assertEqual(run.main(["--compare", str(tmp / "a.jsonl"), str(tmp / "b.jsonl")]), 0)

    def test_a_failed_check_raises_failed_ops(self):
        os.environ["FAKE_WARM_DIFFERS"] = "1"
        res = self.result("headline", 0)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], run.HEADLINE_RERUNS * run.HEADLINE_CELLS)
        self.assertEqual(res["attempted"], (1 + run.HEADLINE_RERUNS) * run.HEADLINE_CELLS)


if __name__ == "__main__":
    unittest.main()
