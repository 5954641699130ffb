"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

The file name keeps it out of the repository's pytest run; it needs the
cachecomp sources under ``src/`` only to produce certificates to tamper with.
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from gen import TraceSpec, generate, to_text  # noqa: E402

from cachecomp import dualcert, parse_trace, strategies  # noqa: E402

SMALL = TraceSpec(length=40, universe=12, working_set=6, drift_every=10, skew=0.8, weight_max=9)


def certificate(seed: int, k: int, policy: str) -> tuple[str, checks.Instance]:
    requests, weights = generate(SMALL, seed, "selftest")
    trace = parse_trace(to_text(requests, weights))
    cert = dualcert.export_certificate(dualcert.run_greedydual_certified(trace, k, policy))
    return cert, checks.Instance(requests, weights)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_trace(self):
        spec = TraceSpec(length=500, universe=50, working_set=10, drift_every=20, skew=1.0, weight_max=7)
        self.assertEqual(generate(spec, 3, "a"), generate(spec, 3, "a"))
        self.assertNotEqual(generate(spec, 3, "a"), generate(spec, 4, "a"))
        self.assertNotEqual(generate(spec, 3, "a"), generate(spec, 3, "b"))

    def test_unit_weights_and_range(self):
        requests, weights = generate(TraceSpec(200, 12, 12, 50, 0.8), 1, "x")
        self.assertEqual(len(requests), 200)
        self.assertTrue(all(0 <= v < 12 for v in requests))
        self.assertEqual(set(weights), {1})
        self.assertTrue(to_text(requests, weights).startswith(f"p{requests[0]}\n"))


class CertificateReaderTest(unittest.TestCase):
    def test_accepts_exported_certificates(self):
        for seed, k, policy in ((1, 4, "max"), (2, 3, "min"), (3, 20, "max")):
            cert, inst = certificate(seed, k, policy)
            got = checks.verify_certificate(cert, inst, k, max(1, k // 2), policy)
            self.assertGreaterEqual(got["dual_cost"], 0)

    def test_rejects_any_single_number_changed(self):
        for policy in ("max", "min"):
            cert, inst = certificate(5, 4, policy)
            numbers = list(re.finditer(r"\d+", cert))
            self.assertGreater(len(numbers), 300)
            for m in numbers:
                tampered = cert[:m.start()] + str(int(m[0]) + 1) + cert[m.end():]
                with self.assertRaises(checks.CertificateRejected, msg=f"{policy} at {m.start()}"):
                    checks.verify_certificate(tampered, inst, 4, 2, policy)

    def test_rejects_wrong_job_parameters(self):
        cert, inst = certificate(5, 4, "max")
        for k, policy in ((5, "max"), (4, "min")):
            with self.assertRaises(checks.CertificateRejected):
                checks.verify_certificate(cert, inst, k, 2, policy)


class OutputCheckTest(unittest.TestCase):
    def test_event_log_with_one_digit_changed_fails(self):
        requests, weights = generate(SMALL, 7, "selftest")
        inst = checks.Instance(requests, weights)
        trace = parse_trace(to_text(requests, weights))
        result = strategies.run("greedydual:max", 3, trace)
        lines = ["index,node,kind,evicted,cost"] + [
            f"{e.index},{trace.labels[e.node]},{e.kind},"
            f"{trace.labels[e.evicted] if e.evicted is not None else ''},{e.cost}"
            for e in result.events
        ]
        stdout = f"strategy greedydual:max\nk 3\ncost {result.total_cost}\n"
        events = "\n".join(lines) + "\n"
        self.assertEqual(checks.check_events(inst, stdout, events, 3, "greedydual:max")[0], [])
        move = next(i for i, line in enumerate(lines) if ",move," in line)
        lines[move] = re.sub(r"\d+$", lambda m: str(int(m[0]) + 1), lines[move])
        events = "\n".join(lines) + "\n"
        self.assertNotEqual(checks.check_events(inst, stdout, events, 3, "greedydual:max")[0], [])

    def test_references_agree_on_a_known_trace(self):
        inst = checks.Instance([0, 1, 2, 0, 1, 3, 0, 1, 2, 3], [1] * 4)
        self.assertEqual(checks.lru_run(inst, 3), (3, 4))
        self.assertEqual(checks.belady_cost(inst, 3), 2)
        self.assertEqual(checks.phase_stats(inst, 3)[0], 2)


class SpanArithmeticTest(unittest.TestCase):
    # root [0,10] -> a [1,4], b [5,9] -> c [6,7]; d [12,13] is a second top-level span
    TREE = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["sweep.sweep", 1.0, 4.0, 0, {"rows": 2}],
        ["dualcert.bound", 5.0, 9.0, 0, None],
        ["dualcert.bound", 6.0, 7.0, 2, None],
        ["cli.main", 12.0, 13.0, -1, None],
    ]

    def test_self_times(self):
        self.assertEqual(spans.self_times(self.TREE), [3.0, 3.0, 3.0, 1.0, 1.0])

    def test_self_times_sum_to_top_level_time(self):
        self.assertEqual(sum(spans.self_times(self.TREE)), 11.0)

    def test_nested_spans_of_one_group_count_once(self):
        m = spans.layer_metrics(self.TREE)
        self.assertEqual(m["dualcert.bound_s"], 4.0)
        self.assertEqual(m["cli.main_s"], 11.0)
        self.assertEqual(m["cli.self_s"], 4.0)
        self.assertEqual(m["sweep.rows"], 2)

    def test_merged_spans_keep_parents_within_a_job(self):
        job = run.JobRun(None, True, "", 0.0, 0.0, 0, 0.0, 0, "", self.TREE[:2])
        merged = run.merged_spans([job, job])
        self.assertEqual([s[3] for s in merged], [-1, 0, -1, 2])


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], run.PER_LAYER)

    def test_layer_metrics_cover_per_layer_list(self):
        names = set(spans.layer_metrics([])) | {"cli.cpu_s", "cli.jobs", "bench.tracing_overhead_s"}
        self.assertEqual(names, {n for n, _, _ in run.PER_LAYER})


if __name__ == "__main__":
    unittest.main()
