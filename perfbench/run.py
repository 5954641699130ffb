"""The cachecomp benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  One driver process runs the
workload's ``cachecomp`` jobs one at a time (a closed loop with one
client), each in a process of its own, so interpreter start, import and
memory are what a user sees.  Inputs are generated from ``--seed`` before
any timing, and the program only sees the trace files.  The job list is
repeated for ``--seconds`` and every figure is a median over repetitions.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions, where spans are recorded around the
library's public functions from outside it (see ``spans.py``), adds one
pass with tracemalloc on for dualcert's peak memory, and reports the
per-layer metrics.  Every output is checked (see ``checks.py``).  The last
line of stdout is a JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
from gen import TraceSpec, generate, to_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS = HERE / "pins.json"

JOB_TIMEOUT_S = 60.0
PIN_SEED = 0
PIN_SHRINK = 8  # pin traces are 1/PIN_SHRINK of the measured length


@dataclass(frozen=True)
class Job:
    name: str
    trace: str  # key into Workload.traces
    argv: tuple[str, ...]  # cachecomp argv; "{trace}" and "{out}" are filled in
    out: str | None = None  # file the job writes, if any
    evals_per_k: int = 1  # evaluations per k value: strategy runs, mark trials, OPT solves

    def arg(self, flag: str) -> str | None:
        return self.argv[self.argv.index(flag) + 1] if flag in self.argv else None

    def ks(self) -> int:
        return int(self.arg("--n") or 1)


@dataclass(frozen=True)
class Workload:
    traces: dict[str, TraceSpec]
    jobs: tuple[Job, ...]

    def requested_work(self) -> int:
        """Trace length x k values x evaluations per k, summed over jobs."""
        return sum(self.traces[j.trace].length * j.ks() * j.evals_per_k for j in self.jobs)


PAGING_STRATEGIES = "lru,fifo,fwf,mark,greedydual:max"
MARK_TRIALS = 3


def _paging_sweep(trace: str) -> Job:
    return Job(
        f"sweep-{trace}", trace,
        ("sweep", "--trace", "{trace}", "--n", "24", "--strategies", PAGING_STRATEGIES,
         "--trials", str(MARK_TRIALS), "--c-family", "log:4", "--out", "{out}"),
        out=f"sweep-{trace}.csv",
        evals_per_k=len(PAGING_STRATEGIES.split(",")) - 1 + MARK_TRIALS + 1,
    )


# BENCHMARK.json records why each workload exists.  Sizes keep one pass
# near 1.5 s, so a 30 s run takes its medians over 15 to 20 passes.
WORKLOADS = {
    "paging-sweep": Workload(
        traces={
            "drift": TraceSpec(length=1200, universe=400, working_set=64, drift_every=50, skew=0.8),
            "small": TraceSpec(length=600, universe=12, working_set=12, drift_every=50, skew=0.8),
        },
        jobs=(_paging_sweep("drift"), _paging_sweep("small")),
    ),
    "weighted-opt": Workload(
        traces={"w": TraceSpec(length=300, universe=100, working_set=24, drift_every=25, skew=0.8,
                               weight_max=20)},
        jobs=(
            Job("optimal", "w", ("optimal", "--trace", "{trace}", "--k", "6", "--opt", "flow",
                                 "--out", "{out}"), out="schedule.csv"),
            Job("sweep", "w", ("sweep", "--trace", "{trace}", "--n", "12", "--opt", "flow",
                               "--strategies", "lru,balance,greedydual:max,greedydual:min",
                               "--out", "{out}"), out="sweep.csv", evals_per_k=5),
        ),
    ),
    "certify": Workload(
        traces={"c": TraceSpec(length=6000, universe=2000, working_set=200, drift_every=30,
                               skew=0.8, weight_max=50)},
        jobs=(
            Job("simulate", "c", ("simulate", "--trace", "{trace}", "--k", "64", "--strategy",
                                  "greedydual:max", "-v", "--out", "{out}"), out="events.csv"),
            Job("certify-max", "c", ("certify", "--trace", "{trace}", "--k", "64", "--h", "32",
                                     "--policy", "max", "--out", "{out}"), out="cert.txt"),
            Job("certify-min", "c", ("certify", "--trace", "{trace}", "--k", "64",
                                     "--policy", "min")),
        ),
    ),
}

END_TO_END = [  # name, unit
    ("wall_s", "s"),
    ("req_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("out_bytes", "bytes"),
]
PER_LAYER = [  # name, unit, better
    ("trace.parse_s", "s", "lower"),
    ("trace.parse_calls", "count", "lower"),
    ("trace.requests", "count", "lower"),
    ("strategies.run_s", "s", "lower"),
    *((f"strategies.run_s.{s}", "s", "lower") for s in spans.STRATEGIES),
    ("strategies.calls", "count", "lower"),
    ("strategies.events", "count", "lower"),
    ("strategies.moves", "count", "lower"),
    ("strategies.hit_ratio", "ratio", "higher"),
    ("offline.flow_s", "s", "lower"),
    ("offline.flow_calls", "count", "lower"),
    ("offline.profile_s", "s", "lower"),
    ("offline.profile_calls", "count", "lower"),
    ("offline.profile_k", "count", "lower"),
    ("offline.belady_s", "s", "lower"),
    ("offline.belady_calls", "count", "lower"),
    ("offline.single_server_s", "s", "lower"),
    ("dualcert.certified_s", "s", "lower"),
    ("dualcert.check_fast_s", "s", "lower"),
    ("dualcert.bound_s", "s", "lower"),
    ("dualcert.export_s", "s", "lower"),
    ("dualcert.cert_bytes", "bytes", "lower"),
    ("dualcert.peak_mb", "MB", "lower"),
    ("dualcert.history_steps", "count", "lower"),
    ("dualcert.relabels", "count", "lower"),
    ("phases.partition_s", "s", "lower"),
    ("phases.partition_calls", "count", "lower"),
    ("phases.phases", "count", "lower"),
    ("sweep.sweep_s", "s", "lower"),
    ("sweep.self_s", "s", "lower"),
    ("sweep.violators_s", "s", "lower"),
    ("sweep.csv_s", "s", "lower"),
    ("sweep.rows", "count", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.cpu_s", "s", "lower"),
    ("cli.jobs", "count", "lower"),
    ("bench.tracing_overhead_s", "s", "lower"),
]


# ------------------------------------------------------------------ jobs


@dataclass
class JobRun:
    job: Job
    ok: bool
    why: str  # the failure, if any
    wall: float
    setup: float | None  # spawn to the start of cli.main
    maxrss_kb: int
    cpu: float
    out_bytes: int
    digest: str
    spans: list


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _wait(proc: subprocess.Popen, timeout: float) -> tuple[bool, object]:
    """Wait for exit, killing at the timeout; return (timed out, rusage).

    waitid(WNOWAIT) leaves the child unreaped until the timer can no longer
    fire, so the kill never reaches a recycled pid.
    """
    exited = threading.Event()
    fired = []

    def expire() -> None:
        if not exited.is_set():
            fired.append(True)
            proc.kill()

    timer = threading.Timer(timeout, expire)
    timer.daemon = True
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    finally:
        exited.set()
        timer.cancel()
    timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return bool(fired), usage


def run_job(job: Job, d: Path, traces: dict[str, Path], mode: str) -> JobRun:
    out = d / job.out if job.out else None
    argv = [a.replace("{trace}", str(traces[job.trace])).replace("{out}", str(out)) for a in job.argv]
    stdout, stderr, report = (d / f"{job.name}.{ext}" for ext in ("stdout", "stderr", "report.json"))
    report.unlink(missing_ok=True)
    cmd, env = [sys.executable, str(HERE / "child.py"), mode, str(report), *argv], _child_env()
    with open(stdout, "wb") as so, open(stderr, "wb") as se:
        start = spans.now()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=so, stderr=se, cwd=ROOT, env=env)
        try:
            timed_out, usage = _wait(proc, JOB_TIMEOUT_S)
        except BaseException:  # interrupted: leave no child behind
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            raise
        wall = spans.now() - start
    why = ""
    if timed_out:
        why = f"timed out after {JOB_TIMEOUT_S} s"
    elif proc.returncode != 0:
        why = f"exit code {proc.returncode}"
    elif stderr.stat().st_size:
        why = "wrote to stderr: " + stderr.read_text(errors="replace")[-300:]
    elif not report.exists() or (out is not None and not out.exists()):
        why = "missing output"
    setup, job_spans = None, []
    if not why:
        rec = json.loads(report.read_text())
        setup, job_spans = rec["main_start"] - start, rec["spans"]
    h = hashlib.sha256(stdout.read_bytes())
    out_bytes = 0
    if out is not None and out.exists():
        data = out.read_bytes()
        out_bytes = len(data)
        h.update(data)
    return JobRun(job, not why, why, wall, setup, usage.ru_maxrss, usage.ru_utime + usage.ru_stime,
                  out_bytes, h.hexdigest(), job_spans)


# ------------------------------------------------------------------ checks


def check_outputs(wl: Workload, insts: dict[str, checks.Instance], d: Path) -> dict[str, list[str]]:
    """Problems per job, from the job's files in ``d`` (all jobs must have run)."""
    problems: dict[str, list[str]] = {}
    opt: dict[tuple[str, int], int] = {}  # (trace, k) -> OPT from a sweep
    flow: dict[str, tuple[tuple[str, int], int | None]] = {}  # optimal job -> ((trace, k), cost)
    logs: dict[tuple, list] = {}  # (trace, k, policy) -> [(kind, cost)] of GreedyDual
    for job in wl.jobs:
        inst = insts[job.trace]
        stdout = (d / f"{job.name}.stdout").read_text()
        out = (d / job.out).read_text() if job.out else ""
        cmd, k = job.argv[0], int(job.arg("--k") or 0)
        if cmd == "sweep":
            family = job.arg("--c-family")
            alpha = int(family.removeprefix("log:")) if family else None
            strategies = job.arg("--strategies").split(",")
            p, by_k = checks.check_sweep(inst, stdout, out, job.ks(), strategies, alpha)
            opt.update({(job.trace, kk): o for kk, o in by_k.items()})
        elif cmd == "optimal":
            p, cost = checks.check_optimal(inst, stdout, out, k)
            flow[job.name] = ((job.trace, k), cost)
        elif cmd == "simulate":
            strategy = job.arg("--strategy")
            p, log = checks.check_events(inst, stdout, out, k, strategy)
            logs.setdefault((job.trace, k, strategy.partition(":")[2]), []).append(log)
        else:
            h, policy = int(job.arg("--h") or k), job.arg("--policy")
            p, fields = checks.check_certify(inst, stdout, k, h, policy)
            if job.out and not p:
                try:
                    cert = checks.verify_certificate(out, inst, k, h, policy)
                except checks.CertificateRejected as exc:
                    p.append(f"certificate rejected: {exc}")
                else:
                    if (str(cert["cost"]), str(cert["dual_cost"])) != (fields["cost"], fields["dual_cost"]):
                        p.append("certificate cost or dual cost differs from the summary")
                    logs.setdefault((job.trace, k, policy), []).append(cert["kinds"])
        problems[job.name] = p
    for name, (key, cost) in flow.items():
        if key in opt and opt[key] != cost:
            problems[name].append(f"flow OPT {cost} differs from the sweep's profile {opt[key]}")
    for key, seen in logs.items():
        if any(log != seen[0] for log in seen):
            problems[wl.jobs[0].name].append(f"GreedyDual runs disagree on {key}")
    return problems


# ------------------------------------------------------------------ runs


@dataclass
class Rep:
    wall: float
    runs: list[JobRun]


class Bench:
    def __init__(self, name: str, wl: Workload, seed: int, d: Path, shrink: int = 1):
        self.wl, self.d = wl, d
        d.mkdir(parents=True)
        self.insts, self.paths = {}, {}
        for key, spec in wl.traces.items():
            spec = dataclasses.replace(spec, length=spec.length // shrink)
            requests, weights = generate(spec, seed, f"{name}/{key}")
            self.paths[key] = d / f"{key}.trace"
            self.paths[key].write_text(to_text(requests, weights), encoding="utf-8")
            self.insts[key] = checks.Instance(requests, weights)
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] = {}  # job -> output digest of the first repetition
        self.passed: Counter[str] = Counter()  # job -> executions that have not failed

    def fail(self, what: str, executions: int = 1) -> None:
        self.failed += executions
        self.failures.append(what)

    def rep(self, mode: str, jobs: tuple[Job, ...] | None = None) -> Rep:
        start = spans.now()
        runs = [run_job(job, self.d, self.paths, mode) for job in jobs or self.wl.jobs]
        wall = spans.now() - start
        for r in runs:
            self.attempted += 1
            if not r.ok:
                self.fail(f"{r.job.name}: {r.why}")
            elif self.reference.setdefault(r.job.name, r.digest) != r.digest:
                self.fail(f"{r.job.name}: output differs between repetitions")
            else:
                self.passed[r.job.name] += 1
        return Rep(wall, runs)

    def check(self) -> None:
        """Check the files of the last repetition.  Every execution of a job wrote the
        same bytes, so a job whose output fails fails in all of its executions."""
        try:
            found = check_outputs(self.wl, self.insts, self.d)
        except (OSError, ValueError, LookupError) as exc:
            found = {job.name: [f"unreadable output: {exc!r}"] for job in self.wl.jobs}
        for job, probs in found.items():
            if probs:
                self.fail(f"{job}: " + "; ".join(probs[:3]), self.passed.pop(job, 0))


def pin_pass(name: str, wl: Workload) -> tuple[Bench, Rep]:
    """One checked pass of the workload on its small fixed pin inputs."""
    d = WORK / name / "pins"
    shutil.rmtree(d, ignore_errors=True)
    b = Bench(name, wl, PIN_SEED, d, shrink=PIN_SHRINK)
    rep = b.rep("plain")
    b.check()
    return b, rep


def check_pins(name: str, wl: Workload) -> Bench:
    """Compare a pin pass with the digests pinned at the seed commit."""
    b, rep = pin_pass(name, wl)
    pinned = json.loads(PINS.read_text())[name]
    for r in rep.runs:
        want = pinned[r.job.name]
        got = pin_digests(b.d, r.job)
        if got != want:
            b.fail(f"pin {r.job.name}: output differs from the pinned bytes", b.passed.pop(r.job.name, 0))
    return b


def pin_digests(d: Path, job: Job) -> dict[str, str]:
    """sha256 of stdout and of the output file; a flow schedule is checked for cost only,
    since another optimal schedule is equally correct."""
    out = {"stdout": hashlib.sha256((d / f"{job.name}.stdout").read_bytes()).hexdigest()}
    if job.out and job.argv[0] != "optimal":
        out["out"] = hashlib.sha256((d / job.out).read_bytes()).hexdigest()
    return out


def input_properties(wl: Workload, insts: dict[str, checks.Instance]) -> list[str]:
    lines = []
    for key, inst in insts.items():
        ks = sorted({k for j in wl.jobs if j.trace == key
                     for k in (range(1, j.ks() + 1) if j.arg("--n") else [int(j.arg("--k"))])})
        w = [inst.weights[v] for v in set(inst.requests)]
        hits = checks.lru_run(inst, ks[-1])[1]
        lines.append(
            f"input {key}: N={len(inst.requests)} distinct={inst.distinct} weights={min(w)}..{max(w)} "
            f"k={ks[0]}..{ks[-1]} share_k_ge_distinct={sum(k >= inst.distinct for k in ks) / len(ks):.3f} "
            f"lru_hit_ratio@{ks[-1]}={hits / len(inst.requests):.4f}"
        )
    return lines


def merged_spans(runs: list[JobRun]) -> list[list]:
    out: list[list] = []
    for r in runs:
        base = len(out)
        out += [[n, s, e, p + base if p >= 0 else -1, c] for n, s, e, p, c in r.spans]
    return out


def measure(b: Bench, seconds: float, traced: bool) -> tuple[dict[str, float], list[str]]:
    """Repeat the job list (alternating with traced repetitions when ``traced``) for ``seconds``."""
    plain: list[Rep] = []
    spanned: list[Rep] = []
    start = spans.now()
    while True:
        plain.append(b.rep("plain"))
        if traced:
            spanned.append(b.rep("spans"))
        elapsed = spans.now() - start
        per_round = elapsed / len(plain)
        if elapsed + per_round > seconds:
            break
    b.check()
    med = statistics.median
    wall = med(r.wall for r in plain)
    if not traced:
        setups = [j.setup for r in plain for j in r.runs if j.setup is not None]
        return {
            "wall_s": wall,
            "req_per_s": b.wl.requested_work() / wall,
            "setup_s": med(setups) if setups else 0.0,
            "peak_rss_mb": med(max(j.maxrss_kb for j in r.runs) for r in plain) / 1024,
            "out_bytes": med(sum(j.out_bytes for j in r.runs) for r in plain),
        }, [f"repetitions {len(plain)}, wall " + " ".join(f"{r.wall:.3f}" for r in plain)]

    per_rep = []
    for r in spanned:
        m = spans.layer_metrics(merged_spans(r.runs))
        m["cli.cpu_s"] = sum(j.cpu for j in r.runs)
        m["cli.jobs"] = len(r.runs)
        per_rep.append(m)
    metrics = {key: med(m[key] for m in per_rep) for key in per_rep[0]}
    dual_jobs = tuple(j for j in b.wl.jobs if j.argv[0] == "certify")
    peaks = []
    if dual_jobs:
        mem = b.rep("memory", dual_jobs)
        peaks = [rec[4]["peak_bytes"] for j in mem.runs for rec in j.spans
                 if rec[4] and "peak_bytes" in rec[4]]
    metrics["dualcert.peak_mb"] = max(peaks, default=0) / 2**20
    with open(b.d / "spans.json", "w", encoding="utf-8") as f:
        json.dump([{"pass": i, "job": j.job.name, "spans": j.spans}
                   for i, r in enumerate(spanned) for j in r.runs], f)
    traced_wall = med(r.wall for r in spanned)
    metrics["bench.tracing_overhead_s"] = traced_wall - wall
    accounted = med(sum(j.setup or 0.0 for j in r.runs) for r in spanned) + metrics["cli.main_s"]
    notes = [
        f"repetitions {len(plain)} untraced, {len(spanned)} traced",
        f"accounting: setup + top-level spans {accounted:.4f} s; traced wall {traced_wall:.4f} s; "
        f"untraced wall {wall:.4f} s; tracing overhead {traced_wall - wall:.4f} s",
    ]
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through run_job's cleanup
    if not (SRC / "cachecomp" / "cli.py").is_file():
        print(f"error: no cachecomp sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    (WORK / args.workload).mkdir(parents=True)
    # Warm start, not measured: compiles the byte-code caches once per checkout.
    warm = [sys.executable, str(HERE / "child.py"), "plain", str(WORK / args.workload / "warm.json"), "--help"]
    subprocess.run(warm, stdout=subprocess.DEVNULL, cwd=ROOT, env=_child_env(), timeout=JOB_TIMEOUT_S)
    pins = check_pins(args.workload, wl)
    b = Bench(args.workload, wl, args.seed, WORK / args.workload / "run")
    metrics, notes = measure(b, args.seconds, traced=bool(args.trace))
    attempted, failed = pins.attempted + b.attempted, pins.failed + b.failed
    failures = pins.failures + b.failures
    names = [(n, u) for n, u in END_TO_END] if not args.trace else [(n, u) for n, u, _ in PER_LAYER]
    for line in input_properties(wl, b.insts) + notes:
        print(line)
    for name, unit in names:
        print(f"{name} {metrics[name]} {unit}")
    print(f"failed_ratio {failed / attempted} ratio ({failed} of {attempted} jobs)")
    for what in failures:
        print(f"FAILED {what}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
