"""Output checks that use none of cachecomp's own checkers.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.  The references here (LRU, FIFO, Belady, phases, the
one-server optimum) are small independent implementations, so a defect in
the library shows up as a mismatch rather than being checked by itself.
All arithmetic on costs and duals is exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


class Instance:
    """The trace a job was given: universe node per request and weights."""

    def __init__(self, requests: list[int], weights: list[int]):
        self.requests = requests
        self.weights = weights
        self.labels = [f"p{v}" for v in requests]
        self.distinct = len(set(requests))
        self.unit = all(weights[v] == 1 for v in set(requests))


# ---------------------------------------------------------------- references


def lru_run(inst: Instance, k: int) -> tuple[int, int]:
    """(cost, hits) of LRU with k servers and free initial placement."""
    cache: dict[int, None] = {}
    cost = hits = 0
    for v in inst.requests:
        if v in cache:
            del cache[v]
            cache[v] = None
            hits += 1
            continue
        if len(cache) == k:
            u = next(iter(cache))
            del cache[u]
            cost += inst.weights[u]
        cache[v] = None
    return cost, hits


def fifo_cost(inst: Instance, k: int) -> int:
    cache: dict[int, None] = {}
    cost = 0
    for v in inst.requests:
        if v in cache:
            continue
        if len(cache) == k:
            u = next(iter(cache))
            del cache[u]
            cost += inst.weights[u]
        cache[v] = None
    return cost


def belady_cost(inst: Instance, k: int) -> int:
    """Farthest-in-future eviction count (the unit-weight optimum)."""
    reqs = inst.requests
    n = len(reqs)
    nxt = [n] * n
    seen: dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        nxt[i] = seen.get(reqs[i], n)
        seen[reqs[i]] = i
    cache: dict[int, int] = {}  # node -> position of its next request
    cost = 0
    for i, v in enumerate(reqs):
        if v not in cache and len(cache) == k:
            del cache[max(cache, key=cache.__getitem__)]
            cost += 1
        cache[v] = nxt[i]
    return cost


def single_server_cost(inst: Instance) -> int:
    r = inst.requests
    return sum(inst.weights[r[i - 1]] for i in range(1, len(r)) if r[i] != r[i - 1])


def phase_stats(inst: Instance, k: int) -> tuple[int, Fraction]:
    """(phases minus one, average new requests per phase beyond the first)."""
    sets: list[set[int]] = []
    cur: set[int] = set()
    for v in inst.requests:
        if v not in cur and len(cur) == k:
            sets.append(cur)
            cur = {v}
        else:
            cur.add(v)
    if inst.requests:
        sets.append(cur)
    p = max(len(sets) - 1, 0)
    new = sum(len(sets[i] - sets[i - 1]) for i in range(1, len(sets)))
    return p, (Fraction(new, p) if p else Fraction(0))


def _fmt(x: float) -> str:
    return repr(round(float(x), 9))


def _fields(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        out.setdefault(key, value)
    return out


# ---------------------------------------------------------------- sweep


def check_sweep(
    inst: Instance,
    stdout: str,
    csv_text: str,
    n: int,
    strategies: list[str],
    log_alpha: int | None,
) -> tuple[list[str], dict[int, int]]:
    """Check a sweep's summary and CSV; return (problems, opt by k)."""
    problems: list[str] = []
    f = _fields(stdout)
    opt1 = single_server_cost(inst)
    method = "belady" if inst.unit else "flow"
    if f.get("n") != str(n) or f.get("opt_method") != method or f.get("opt1") != str(opt1):
        problems.append(f"sweep summary differs: {stdout.splitlines()[:3]}")
    lines = csv_text.splitlines()
    if not lines or lines[0] != "k,strategy,cost,opt,ratio,phases,avenew,violator":
        return problems + ["sweep CSV header differs"], {}
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != n * len(strategies) or any(len(r) != 8 for r in rows):
        return problems + [f"sweep CSV has {len(rows)} rows, want {n * len(strategies)}"], {}
    opt: dict[int, int] = {}
    flagged: dict[str, list[int]] = {s: [] for s in strategies}
    it = iter(rows)
    for k in range(1, n + 1):
        p, avenew = phase_stats(inst, k)
        lru = lru_run(inst, k)[0] if "lru" in strategies or inst.unit else None
        for name in strategies:
            kk, sname, cost_s, opt_s, ratio, phases, av, viol = next(it)
            where = f"sweep k={k} {name}"
            if (kk, sname) != (str(k), name):
                return problems + [f"{where}: row order differs"], opt
            cost, o = Fraction(cost_s), int(opt_s)
            if opt.setdefault(k, o) != o:
                problems.append(f"{where}: OPT differs between rows of one k")
            if phases != str(p) or av != _fmt(avenew):
                problems.append(f"{where}: phases {phases},{av} want {p},{_fmt(avenew)}")
            want_ratio = _fmt(float(cost) / o) if o else ("" if cost == 0 else "inf")
            if ratio != want_ratio:
                problems.append(f"{where}: ratio {ratio} want {want_ratio}")
            if cost < o:
                problems.append(f"{where}: cost {cost_s} below OPT {o}")
            if name == "lru" or (name == "greedydual:max" and inst.unit):
                if cost != lru:
                    problems.append(f"{where}: cost {cost_s}, reference LRU {lru}")
            elif name == "fifo" and cost != fifo_cost(inst, k):
                problems.append(f"{where}: cost {cost_s} differs from reference FIFO")
            elif name == "fwf" and cost != k * p:
                problems.append(f"{where}: cost {cost_s} != k*P = {k * p}")
            elif name == "mark" and cost > k * p:
                problems.append(f"{where}: mean cost {cost_s} above k*P = {k * p}")
            if log_alpha is None:
                if viol != "":
                    problems.append(f"{where}: violator flag without a family")
                continue
            c_k = float(log_alpha) * math.log(k + 1)
            hit = cost > 0 and float(cost) >= max(c_k * o, opt1 / float(n))
            if viol != str(int(hit)):
                problems.append(f"{where}: violator flag {viol} want {int(hit)}")
            if hit:
                flagged[name].append(k)
    problems += _check_opt_column(inst, opt, n)
    if log_alpha is not None:
        want = [
            f"violators {s} {len(ks)}" + (f" [{' '.join(map(str, ks))}]" if ks else "")
            for s, ks in flagged.items()
        ]
        got = [line for line in stdout.splitlines() if line.startswith("violators ")]
        if got != want:
            problems.append(f"violator summary {got} want {want}")
    return problems, opt


def _check_opt_column(inst: Instance, opt: dict[int, int], n: int) -> list[str]:
    if opt.get(1) != single_server_cost(inst):
        return [f"OPT(1) {opt.get(1)} differs from the one-server optimum"]
    problems = []
    for k in range(1, n + 1):
        if inst.unit and opt[k] != belady_cost(inst, k):
            problems.append(f"OPT({k}) {opt[k]} differs from reference Belady")
        if k > 1 and opt[k] > opt[k - 1]:
            problems.append(f"OPT({k}) {opt[k]} exceeds OPT({k - 1})")
        if k >= inst.distinct and opt[k] != 0:
            problems.append(f"OPT({k}) nonzero with k >= distinct nodes")
    return problems


# ---------------------------------------------------------------- optimal


def check_optimal(inst: Instance, stdout: str, schedule: str, k: int) -> tuple[list[str], int | None]:
    """Check the flow schedule structurally and recompute its cost."""
    f = _fields(stdout)
    if f.get("method") != "flow" or f.get("k") != str(k) or "cost" not in f:
        return [f"optimal summary differs: {stdout!r}"], None
    cost = int(f["cost"])
    n = len(inst.requests)
    lines = schedule.splitlines()
    if not lines or lines[0] != "request,predecessor" or len(lines) != n + 1:
        return ["schedule CSV shape differs"], cost
    used: set[int] = set()
    initial = total = 0
    for j, line in enumerate(lines[1:], start=1):
        jj, _, ps = line.partition(",")
        p = int(ps)
        if int(jj) != j or not 0 <= p < j:
            return [f"schedule row {j}: predecessor {ps} out of range"], cost
        if p == 0:
            initial += 1
            continue
        if p in used:
            return [f"schedule reuses request {p}"], cost
        used.add(p)
        prev = inst.requests[p - 1]
        total += 0 if prev == inst.requests[j - 1] else inst.weights[prev]
    problems = []
    if initial > k:
        problems.append(f"schedule uses {initial} initial placements > k={k}")
    if total != cost:
        problems.append(f"schedule costs {total}, reported {cost}")
    return problems, cost


# ---------------------------------------------------------------- simulate


def check_events(
    inst: Instance, stdout: str, events: str, k: int, strategy: str
) -> tuple[list[str], list[tuple[str, int]]]:
    """Replay a non-flushing event log against the trace; return (problems, (kind, cost) per request)."""
    f = _fields(stdout)
    if f.get("strategy") != strategy or f.get("k") != str(k) or "cost" not in f:
        return [f"simulate summary differs: {stdout!r}"], []
    lines = events.splitlines()
    if not lines or lines[0] != "index,node,kind,evicted,cost" or len(lines) != len(inst.requests) + 1:
        return ["event CSV shape differs"], []
    weight = {f"p{v}": inst.weights[v] for v in set(inst.requests)}
    cache: set[str] = set()
    total = 0
    log = []
    for i, line in enumerate(lines[1:]):
        idx, node, kind, evicted, cost_s = line.split(",")
        cost = int(cost_s)
        ok = idx == str(i) and node == inst.labels[i]
        if kind == "hit":
            ok = ok and node in cache and evicted == "" and cost == 0
        elif kind == "free":
            ok = ok and node not in cache and len(cache) < k and evicted == "" and cost == 0
        elif kind == "move":
            ok = ok and node not in cache and len(cache) == k and evicted in cache
            ok = ok and cost == weight[evicted]
            cache.discard(evicted)
        else:
            ok = False
        if not ok:
            return [f"event {i} ({line}) is inconsistent with the trace"], log
        cache.add(node)
        total += cost
        log.append((kind, cost))
    if total != int(f["cost"]):
        return [f"event costs sum to {total}, reported {f['cost']}"], log
    return [], log


# ---------------------------------------------------------------- certify


def check_certify(
    inst: Instance, stdout: str, k: int, h: int, policy: str
) -> tuple[list[str], dict[str, str]]:
    f = _fields(stdout)
    want = {"policy": policy, "k": str(k), "h": str(h), "ratio": str(Fraction(k, k - h + 1)),
            "feasible": "PASS", "bound": "PASS", "verdict": "PASS"}
    bad = {key: f.get(key) for key, value in want.items() if f.get(key) != value}
    if bad or "cost" not in f or "dual_cost" not in f:
        return [f"certify summary differs: {bad or stdout!r}"], f
    return [], f


class CertificateRejected(Exception):
    pass


def verify_certificate(text: str, inst: Instance, k: int, h: int, policy: str) -> dict:
    """Re-verify an exported certificate (format version 1) in exact integers.

    Checks that the certificate describes this instance, that every step's
    served set follows from the previous one, that a and b are exactly the
    values the recorded raises imply, that (a, b) is dual feasible
    (a >= 0, b non-increasing, and the next-same-node and
    next-different-node constraints, which bind when b is monotone), and
    that (k-h+1)*cost <= k*dual - (k-h+1)*sum over served of b[moved+1].
    Returns the recomputed figures; raises CertificateRejected otherwise.
    """
    try:
        return _verify(text, inst, k, h, policy)
    except (ValueError, IndexError, KeyError) as exc:
        raise CertificateRejected(f"unreadable certificate: {exc!r}") from None


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CertificateRejected(what)


_STEP = re.compile(r"step (\d+) kind=(\w+) cost=(\d+) raised=(\d+) dist=(\d+) S=(.*)")


def _verify(text: str, inst: Instance, k: int, h: int, policy: str) -> dict:
    lines = text.split("\n")
    _require(lines[0] == "cachecomp-certificate 1", "unknown certificate version")
    _require(lines[-1] == "", "certificate must end with a newline")
    head = dict(line.partition(" ")[::2] for line in lines[1:10])
    n = len(inst.requests)
    _require(head["k"] == str(k) and head["policy"] == policy, "k or policy differs")
    _require(head["requests"] == str(n), "request count differs")
    labels = head["labels"].split(" ")
    ids = [int(x) for x in head["trace"].split(" ")]
    weights = [int(x) for x in head["weights"].split(" ")]
    _require(len(weights) == len(labels), "one weight per label")
    _require([labels[v] for v in ids] == inst.labels, "trace differs from the input")
    _require(all(weights[ids[t]] == inst.weights[inst.requests[t]] for t in range(n)),
             "weights differ from the input")
    a = [int(x) for x in head["a"].split(" ")]
    b = [0] + [int(x) for x in head["b"].split(" ")]
    _require(len(a) == n + 1 and len(b) == n + 1, "dual vector lengths")
    cost = int(head["cost"])
    steps = lines[10:-1]
    _require(len(steps) == n, "one step line per request")

    zero = k  # initial placements not yet used
    served: dict[int, int] = {}  # served request -> request at which its server last moved
    node_of: dict[int, int] = {}  # node -> the request that holds its server
    raised = dist = 0
    raised_after = [0] * (n + 1)  # cumulative raise after each step
    left: dict[int, int] = {}  # request -> cumulative raise when it left the served set
    kinds = []
    for t, line in enumerate(steps, start=1):
        m = _STEP.fullmatch(line)
        _require(m is not None and m[1] == str(t), f"step {t} is malformed")
        kind, step_cost, new_raised, new_dist, s_field = m[2], int(m[3]), int(m[4]), int(m[5]), m[6]
        v = ids[t - 1]
        if kind == "hit":
            _require(v in node_of and step_cost == 0 and new_raised == raised, f"step {t}: bad hit")
            old = node_of[v]
            left[old] = raised
            served[t] = served.pop(old)
        elif kind == "free":
            _require(v not in node_of and zero > 0 and step_cost == 0 and new_raised == raised,
                     f"step {t}: bad placement")
            zero -= 1
            if zero == 0:
                left[0] = raised
            served[t] = t
        else:
            _require(kind == "move" and v not in node_of and zero == 0 and new_raised >= raised,
                     f"step {t}: bad move")
            stay = {int(e.partition(":")[0]) for e in s_field.split(",")}
            gone = [i for i in served if i not in stay]
            _require(len(gone) == 1, f"step {t}: a move evicts exactly one request")
            victim = gone[0]
            _require(step_cost == weights[ids[victim - 1]], f"step {t}: move cost")
            del served[victim], node_of[ids[victim - 1]]
            left[victim] = new_raised
            served[t] = t
        node_of[v] = t
        raised, dist = new_raised, dist + step_cost
        raised_after[t] = raised
        kinds.append((kind, step_cost))
        _require(new_dist == dist, f"step {t}: distance")
        want = ([f"0*{zero}"] if zero else []) + [f"{i}:{served[i]}" for i in sorted(served)]
        _require(s_field == ",".join(want), f"step {t}: served set")
    _require(cost == dist, "cost differs from the summed steps")

    _require(b[1:] == [raised - raised_after[j - 1] for j in range(1, n + 1)], "b differs from the raises")
    _require(a == [raised - left[i] if i in left else 0 for i in range(n + 1)], "a differs from the raises")
    _require(all(x >= 0 for x in a), "a < 0")
    _require(all(b[j] >= b[j + 1] for j in range(1, n)), "b increases")
    _require(n == 0 or b[1] <= a[0], "constraint (0, 1)")
    # With b non-increasing, request i's binding constraints are its next
    # same-node and next different-node requests.
    next_same: dict[int, int] = {}
    next_diff = n + 1
    for i in range(n, 0, -1):
        v = ids[i - 1]
        if i < n and ids[i] != v:
            next_diff = i + 1
        j = next_same.get(v)
        _require(j is None or b[j] <= a[i], f"same-node constraint at {i}")
        _require(next_diff > n or b[next_diff] - a[i] <= weights[v], f"different-node constraint at {i}")
        next_same[v] = i
    dual = -h * a[0] - sum(a[1:n]) + sum(b[1:])
    served_b = zero * (b[1] if n else 0) + sum(b[m + 1] for m in served.values() if m + 1 <= n)
    _require((k - h + 1) * cost <= k * dual - (k - h + 1) * served_b, "primal-dual bound fails")
    return {"cost": cost, "dual_cost": dual, "kinds": kinds}
