"""
The offline optimum, three ways
===============================

The exact minimum cost of serving a trace with k servers is a min-cost
assignment: every request is served either by the previous server of the
same node (free), by a server evicted from another node (that node's
weight), or by one of k free initial placements.

Equivalently, a server parked on a node until that node's next request
saves the node's weight, and with k servers at most k-1 parked intervals
overlap any request.  OPT(1) pays every interval; OPT(k) subtracts the
heaviest set of intervals at most k-1 deep, which a min-cost flow on the
request timeline finds one extra server (one shortest path) at a time.

Three solvers cross-check one another:

  * opt_flow       interval flow, any weights, returns the schedule
  * opt_belady     farthest-in-future simulation, unit weights only
  * opt_bruteforce exhaustive search over eviction choices, tiny inputs
"""

from cachecomp import (
    generate_random,
    opt_belady,
    opt_bruteforce,
    opt_flow,
    opt_flow_profile,
    parse_trace,
)

# --- tiny weighted instance: all three agree -------------------------------
trace = parse_trace("a 5\nb\nc\nb\na 5\nd\n")
print("weighted trace:", [trace.labels[v] for v in trace.requests])
for k in (1, 2, 3):
    flow = opt_flow(trace, k)
    brute = opt_bruteforce(trace, k)
    print(f"  k={k}: opt_flow={flow.cost}  opt_bruteforce={brute}")
    assert flow.cost == brute

# --- the schedule explains the cost ----------------------------------------
schedule = opt_flow(trace, 2)
print("\noptimal schedule at k=2 (request <- predecessor, 0 = fresh server):")
for j in range(1, len(trace) + 1):
    i = schedule.predecessor[j]
    src = "fresh" if i == 0 else f"server of {trace.labels[trace.requests[i - 1]]}@{i}"
    print(f"  {j}:{trace.labels[trace.requests[j - 1]]:<2} <- {src}")

# --- paging fast path -------------------------------------------------------
paging = generate_random(num_nodes=40, length=2000, weight_max=1, seed=3)
print(f"\npaging trace: {len(paging)} requests over {paging.num_nodes} nodes")
for k in (4, 8, 16, 32):
    fast = opt_belady(paging, k)
    exact = opt_flow(paging, k).cost
    print(f"  k={k:>2}: belady={fast:>4}  flow={exact:>4}")
    assert fast == exact

# --- one incremental solve gives the whole OPT(1..k) profile ----------------
profile = opt_flow_profile(paging, 12)
print("\nOPT profile for k = 1..12:", profile)
assert profile == sorted(profile, reverse=True), "more servers never cost more"
