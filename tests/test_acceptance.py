"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete. Tolerances are fixed here, not calibrated at
runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from driftsched import (
    DriftSpec,
    EvalCurve,
    ScheduleConfig,
    SoftMdpSequence,
    auc,
    drop_ratio,
    goal_chain_mdp,
    planner_run,
    recovery_time,
    run_suite,
    td_train_many,
)
from driftsched.cli import main as cli_main
from driftsched.verify import (
    _check_bregman_equals_kl,
    _check_fenchel_young_gap,
    _check_offline_lambda_minimizer,
    _check_performance_difference,
    _check_tradeoff_bounds,
)

SEED = 0

INEQUALITY_CHECKS = (
    "lse_lipschitz",                  # log-sum-exp 1-Lipschitz
    "soft_backup_contraction",        # gamma-contraction of the backup
    "operator_drift_bound",           # backup drift vs reward/transition drift
    "fixed_point_sensitivity",        # solved-table drift bound
    "softmax_drift",                  # softmax l1 vs sup-norm drift
    "entropy_range",                  # entropy between -log K and 0
    "entropy_grad_bound",             # entropy gradient on floored simplex
    "pinsker_strong_convexity",       # KL >= half squared l1
    "prefix_sum_potential",           # sum a_t / sqrt(A_t) <= 2 sqrt(A_T)
    "prefix_average_growth",          # sum sqrt(A_t/t) <= 2 sqrt(T A_T)
    "clip_compensation",              # clipping adds only endpoint terms
    "squared_drift_conversion",       # squared drift <= 2 Q_max * linear drift
    "occupancy_mismatch_bound",       # weighted surrogate-gap mismatch bound
    "occupancy_policy_sensitivity",   # occupancy l1 vs statewise policy l1
)


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {status} {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def suite_reports():
    return {r.name: r for r in run_suite(seed=SEED)}


def test_criterion_1_identity_suite():
    t0 = time.time()
    bregman = _check_bregman_equals_kl(SEED)
    fenchel = _check_fenchel_young_gap(SEED)
    pdl = _check_performance_difference(SEED)
    elapsed = time.time() - t0
    ok = (
        bregman.passed and bregman.samples == 1000 and bregman.tolerance == 1e-10
        and fenchel.passed and fenchel.samples == 1000 and fenchel.tolerance == 1e-10
        and pdl.passed and pdl.samples == 200 and pdl.tolerance == 1e-7
        and elapsed < 10.0
    )
    report(
        "1 identity suite",
        ok,
        f"residuals: bregman={bregman.max_violation:.2e} "
        f"fenchel_young={fenchel.max_violation:.2e} "
        f"performance_difference={pdl.max_violation:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_2_inequality_suite():
    t0 = time.time()
    reports = {r.name: r for r in run_suite(seed=SEED)}
    elapsed = time.time() - t0
    worst = []
    ok = True
    for name in INEQUALITY_CHECKS:
        r = reports[name]
        if not r.passed or r.samples < 1000:
            ok = False
            worst.append(name)
    # the timing budget covers the inequality battery; the full suite
    # (which also reruns the regret streams) stays well under it too
    ok = ok and elapsed < 30.0
    report("2 inequality suite", ok,
           f"{len(INEQUALITY_CHECKS)} checks, >=1000 samples each "
           f"({elapsed:.1f}s){' offenders: ' + str(worst) if worst else ''}")


def test_criterion_3_regret_bounds():
    t0 = time.time()
    tradeoff, online = _check_tradeoff_bounds(SEED, n_streams=100, horizon=1000)
    elapsed = time.time() - t0
    ok = (
        tradeoff.passed and tradeoff.samples >= 100
        and online.passed and online.samples >= 100
        and elapsed < 60.0
    )
    report("3 regret bounds", ok,
           f"trade-off worst slack={tradeoff.max_violation:.1f}, "
           f"online worst slack={online.max_violation:.1f} on 100 streams "
           f"({elapsed:.1f}s)")


def test_criterion_4_offline_minimizer(suite_reports):
    r = suite_reports["offline_lambda_minimizer"]
    ok = r.passed and r.samples == 50 and r.tolerance == 1e-3
    report("4 offline minimizer", ok,
           f"max relative gap={r.max_violation:.2e} over {r.samples} tuples")


def planner_task_spec(pattern, horizon, changes, seed):
    base = goal_chain_mdp(goal_reward=0.6)
    alt = goal_chain_mdp(goal=0, goal_reward=1.0)
    drift = (DriftSpec(change_times=changes, reward_alt=alt.rewards, jitter=0.05)
             if pattern == "abrupt" else DriftSpec())
    return SoftMdpSequence(base=base, pattern=pattern, horizon=horizon,
                           drift=drift, seed=seed)


def test_criterion_5_schedule_behavior():
    horizon, changes, n_seeds = 400, (160, 280), 20
    cfg = ScheduleConfig(mode="online", lambda_min=0.05, lambda_max=1.0,
                         ema_beta=0.95)
    lam_abrupt = np.vstack([
        planner_run(planner_task_spec("abrupt", horizon, changes, seed),
                    cfg).column("lambda")
        for seed in range(n_seeds)
    ])
    lam_med = np.median(lam_abrupt, axis=0)
    window_ok, details = True, []
    for tc in changes:
        pre = lam_med[tc - 51:tc - 1].mean()
        post = lam_med[tc - 1:tc + 49].mean()
        window_ok &= post > pre
        details.append(f"t={tc}: {pre:.3f}->{post:.3f}")

    lam_steady = np.vstack([
        planner_run(planner_task_spec("steady", horizon, (), seed),
                    cfg).column("lambda")
        for seed in range(n_seeds)
    ])
    tail = np.median(lam_steady, axis=0)[horizon // 4:]
    steady_ok = (np.diff(tail) <= 1e-12).all() and tail[-1] <= cfg.lambda_min + 1e-12

    report("5 schedule behavior", window_ok and steady_ok,
           f"abrupt windows {' | '.join(details)}; steady tail nonincreasing "
           f"to floor {tail[-1]:.3f}")


def td_task_spec(pattern, horizon, changes):
    base = goal_chain_mdp(goal_reward=0.6)
    alt = goal_chain_mdp(goal=0, goal_reward=1.0)
    drift = (DriftSpec(change_times=changes, reward_alt=alt.rewards, jitter=0.0)
             if pattern == "abrupt" else DriftSpec())
    return SoftMdpSequence(base=base, pattern=pattern, horizon=horizon,
                           drift=drift, seed=0)


def test_criterion_6_qualitative_ordering():
    n_seeds = 20

    # --- sampled TD learner: recovery time, adaptive vs steady-tuned fixed
    horizon, tc, lr, batch = 8000, 3000, 0.25, 10
    online = ScheduleConfig(mode="online", c1=0.04, c2=1.0, lambda_min=0.05,
                            lambda_max=1.0, ema_beta=0.9)
    seeds = list(range(n_seeds))
    steady_spec = td_task_spec("steady", horizon, ())
    finals = [
        tr.column("lambda")[-1]
        for tr in td_train_many([steady_spec] * n_seeds, [online] * n_seeds,
                                seeds, batch, 50, 25, learn_rate=lr)
    ]
    tuned_value = float(np.median(finals))
    fixed = ScheduleConfig(mode="fixed", fixed_value=tuned_value,
                           lambda_min=online.lambda_min,
                           lambda_max=online.lambda_max)

    abrupt_spec = td_task_spec("abrupt", horizon, (tc,))
    traces = td_train_many([abrupt_spec] * (2 * n_seeds),
                           [online] * n_seeds + [fixed] * n_seeds,
                           seeds + seeds, batch, 50, 25, learn_rate=lr)
    rec = [recovery_time(EvalCurve.from_trace(tr), [tc], window=5,
                         total_steps=horizon) for tr in traces]
    rec_on, rec_fx = rec[:n_seeds], rec[n_seeds:]
    td_ok = np.median(rec_on) < np.median(rec_fx)

    # --- full-information planner: dynamic regret on the same sequences
    p_horizon, p_changes = 400, (160, 280)
    cfg_on = ScheduleConfig(mode="online", lambda_min=0.05, lambda_max=1.0,
                            ema_beta=0.95)
    cfg_fx = ScheduleConfig(mode="fixed", fixed_value=cfg_on.lambda_min)
    reg_on, reg_fx = [], []
    for seed in range(n_seeds):
        spec = planner_task_spec("abrupt", p_horizon, p_changes, seed)
        reg_on.append(planner_run(spec, cfg_on).column("regret_rl_inc").sum())
        reg_fx.append(planner_run(spec, cfg_fx).column("regret_rl_inc").sum())
    plan_ok = np.median(reg_on) < np.median(reg_fx)

    report("6 qualitative ordering", td_ok and plan_ok,
           f"TD recovery median {np.median(rec_on):.3f} (adaptive, fixed "
           f"value {tuned_value:.3f}) vs {np.median(rec_fx):.3f} (fixed); "
           f"planner regret median {np.median(reg_on):.0f} vs {np.median(reg_fx):.0f}")


def test_criterion_7_metrics_unit_behavior():
    steady = EvalCurve(np.array([0.0, 10.0]), np.array([1.0, 1.0]))
    better = EvalCurve(np.array([0.0, 10.0]), np.array([1.06, 1.06]))
    negative = drop_ratio(better, steady)

    steps = np.arange(0, 1001, 50.0)
    rets = np.where(steps < 500, 1.0, 0.0)
    never = recovery_time(EvalCurve(steps, rets), [500], window=5,
                          total_steps=1000)

    span = auc(EvalCurve(np.array([0.0, 40.0, 100.0]), np.full(3, 2.5)))

    ok = (
        abs(negative - (-0.06)) <= 1e-9
        and abs(never - 0.5) <= 1e-9
        and abs(span - 2.5 * 100.0) <= 1e-9
    )
    report("7 metrics unit behavior", ok,
           f"drop_ratio={negative:+.2f}, unrecovered mid-change={never}, "
           f"constant auc={span}")


def test_criterion_8_determinism(tmp_path):
    doc = {
        "task": {"kind": "goal_chain", "n_states": 5, "n_actions": 3,
                 "patterns": ["steady", "abrupt"],
                 "drift": {"change_times": [150], "jitter": 0.0}},
        "methods": [
            {"name": "adaptive_td", "agent": "td",
             "schedule": {"mode": "online", "C1": 0.04, "ema_beta": 0.9}},
        ],
        "seeds": [0, 1],
        "horizon": 300,
        "batch_size": 10,
        "eval_every": 50,
        "episode_len": 25,
        "learn_rate": 0.25,
        "output_dir": str(tmp_path / "unused"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "r1")]) == 0
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "r2")]) == 0
    names = sorted(p.name for p in (tmp_path / "r1").iterdir())
    identical = all(
        (tmp_path / "r1" / n).read_bytes() == (tmp_path / "r2" / n).read_bytes()
        for n in names
    )
    report("8 determinism", identical and len(names) == 5,
           f"{len(names)} output files bit-identical across reruns")


def test_criterion_9_mutation_sensitivity(suite_reports):
    baseline_ok = all(r.passed for r in suite_reports.values())
    mutated = run_suite(seed=SEED, tradeoff_c2_factor=0.5)
    failing = [r.name for r in mutated if not r.passed]
    ok = baseline_ok and failing == ["coupled_tradeoff_regret_bound"]
    report("9 mutation sensitivity", ok,
           f"halved stability constant fails exactly {failing}")
