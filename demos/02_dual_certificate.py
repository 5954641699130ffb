"""
GreedyDual's live optimality certificate
========================================

GreedyDual maintains a feasible solution (a, b) to the dual of the
offline assignment program while it serves requests.  The dual's value
lower-bounds what ANY offline schedule with h servers must pay, so by the
end of the run the algorithm holds a proof of its own competitiveness:

    cost  <=  k/(k-h+1) * value(a, b, h)  <=  k/(k-h+1) * OPT(h).

This script runs the certified simulation on a random weighted trace,
verifies the certificate, and compares the bound with the true optimum.
"""

from fractions import Fraction

from cachecomp import (
    check_feasibility,
    check_primal_dual_bound,
    dual_cost,
    export_certificate,
    generate_random,
    opt_flow,
    run_greedydual_certified,
)

K = 4
trace = generate_random(num_nodes=12, length=400, weight_max=9, seed=7)
cert = run_greedydual_certified(trace, K, relabel="max")

print(f"trace: {len(trace)} requests over {trace.num_nodes} nodes, k = {K}")
print(f"greedydual cost: {cert.result.total_cost}")
print()

violations = check_feasibility(cert.dual, trace)
print(f"dual feasibility (exhaustive O(N^2) check): {len(violations)} violations")

for h in range(1, K + 1):
    value = dual_cost(cert.dual, h)
    opt_h = opt_flow(trace, h).cost
    ratio = Fraction(K, K - h + 1)
    print(
        f"  h={h}: dual value {value:>5}  <= OPT(h) {opt_h:>5}   "
        f"certified cost bound {ratio} * {value} = {ratio * value}  "
        f"(bound holds: {check_primal_dual_bound(cert, h)})"
    )

print()
print("certificate export (first lines):")
for line in export_certificate(cert).splitlines()[:10]:
    print("  " + line)
