"""Full-information planner on an abrupt goal-swap corridor.

The drift proxy is the sup-norm change of the solved Q table. It is
exactly zero on flat segments, so the scheduled temperature sits on the
clip floor until a change hits, then jumps and decays. A fixed-floor
planner pays for its frozen step size with slower re-tracking.
"""

import numpy as np

from driftsched import (
    DriftSpec,
    ScheduleConfig,
    SoftMdpSequence,
    goal_chain_mdp,
    planner_run_many,
)

T, changes = 300, (120, 220)
base = goal_chain_mdp(goal_reward=0.6)
alt = goal_chain_mdp(goal=0, goal_reward=1.0)
drift = DriftSpec(change_times=changes, reward_alt=alt.rewards, jitter=0.05)
spec = SoftMdpSequence(base=base, pattern="abrupt", horizon=T, drift=drift, seed=1)

adaptive = ScheduleConfig(mode="online", lambda_min=0.05, lambda_max=1.0, ema_beta=0.95)
frozen = ScheduleConfig(mode="fixed", fixed_value=0.05)

tr_a, tr_f = planner_run_many(spec, [adaptive, frozen])  # one solve chain for both

lam = tr_a.column("lambda")
print("scheduled temperature around each change (window means):")
for tc in changes:
    pre = lam[tc - 31:tc - 1].mean()
    post = lam[tc - 1:tc + 29].mean()
    print(f"  change at t={tc}: pre={pre:.3f} -> post={post:.3f}")

print("\ncumulative return gap vs the per-step optimum:")
for name, tr in (("adaptive", tr_a), ("fixed-floor", tr_f)):
    inc = tr.column("regret_rl_inc")
    print(f"  {name:<12} total={inc.sum():7.1f}   "
          f"final-quarter mean gap={inc[-T // 4:].mean():.3f}")

print("\nproxy trace is zero off-change and spikes exactly at the switches:")
proxy = tr_a.column("proxy")
nonzero = np.nonzero(proxy > 1e-6)[0] + 1
print(f"  first nonzero proxy steps: {nonzero[:6]}  (changes at {changes})")
