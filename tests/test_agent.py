import functools
import math

import numpy as np
import pytest

from driftsched import (
    AlignmentError,
    DriftSpec,
    ExplicitConstants,
    ProxyState,
    ScheduleConfig,
    SoftMdpSequence,
    TabularMdp,
    TdLearnerState,
    goal_chain_mdp,
    planner_run,
    planner_step,
    random_mdp,
    rl_dynamic_regret,
    soft_policy,
    solve_soft_q,
    td_step,
    td_train,
    td_train_many,
)
from driftsched.simplex import kl_div


def abrupt_goal_spec(horizon, changes, seed, jitter=0.0):
    base = goal_chain_mdp(goal_reward=0.6)
    alt = goal_chain_mdp(goal=0, goal_reward=1.0)
    drift = DriftSpec(change_times=changes, reward_alt=alt.rewards, jitter=jitter)
    return SoftMdpSequence(base=base, pattern="abrupt", horizon=horizon,
                           drift=drift, seed=seed)


def steady_goal_spec(horizon, seed=0):
    return SoftMdpSequence(base=goal_chain_mdp(goal_reward=0.6), pattern="steady",
                           horizon=horizon, drift=DriftSpec(), seed=seed)


class TestPlanner:
    def test_first_round_lambda_at_floor(self):
        cfg = ScheduleConfig(mode="online")
        tr = planner_run(steady_goal_spec(3), cfg)
        assert tr.column("lambda")[0] == cfg.lambda_min

    def test_steady_converges_to_soft_policy(self):
        # negligible regularizer floor so the iterate limit matches the
        # softmax of the solved table at the base temperature
        base = random_mdp(4, 3, gamma=0.9, mu=0.2, rng=np.random.default_rng(5))
        spec = SoftMdpSequence(base=base, pattern="steady", horizon=700,
                               drift=DriftSpec(), seed=0)
        cfg = ScheduleConfig(mode="fixed", fixed_value=5e-4, c=100.0,
                             lambda_min=1e-4, lambda_max=1.0)
        tr = planner_run(spec, cfg, eps=1e-8, tol=1e-10)
        target = soft_policy(solve_soft_q(base, 1e-10), base.mu)
        final = tr.policies[-1]
        for s in range(4):
            assert kl_div(final[s], target[s]) <= 1e-3

    def test_proxy_spikes_only_at_changes(self):
        spec = abrupt_goal_spec(60, (20, 45), seed=3, jitter=0.05)
        cfg = ScheduleConfig(mode="online")
        from driftsched.softmdp import generate_sequence
        from driftsched.scheduler import ProxyState as PS

        mdps = generate_sequence(spec)
        from driftsched.agent import PlannerState
        state = PlannerState(policy=np.full((5, 3), 1 / 3), proxy=PS())
        raws = []
        for mdp in mdps:
            q = solve_soft_q(mdp, 1e-9)
            state, rec = planner_step(state, mdp, q, cfg, eps=1e-6)
            raws.append(rec["proxy_raw"])
        raws = np.asarray(raws)
        spike_idx = set(np.nonzero(raws > 1e-6)[0] + 1)
        assert spike_idx == {20, 45}

    def test_regret_increments_nonnegative(self):
        tr = planner_run(abrupt_goal_spec(80, (40,), seed=1), ScheduleConfig(mode="online"))
        assert (tr.column("regret_rl_inc") >= -1e-6).all()

    def test_steady_regret_shrinks(self):
        tr = planner_run(steady_goal_spec(200), ScheduleConfig(mode="online"))
        inc = tr.column("regret_rl_inc")
        assert inc[-50:].mean() < inc[:50].mean()

    def test_rl_dynamic_regret_matches_trace(self):
        spec = abrupt_goal_spec(50, (25,), seed=2)
        tr = planner_run(spec, ScheduleConfig(mode="online"))
        total = rl_dynamic_regret(tr, spec, tol=1e-9)
        assert total == pytest.approx(tr.column("regret_rl_inc").sum(), abs=1e-6)

    def test_rl_dynamic_regret_zero_for_optimal_play(self):
        spec = steady_goal_spec(20)
        from driftsched.softmdp import generate_sequence
        from driftsched.trace import RunTrace

        mdps = generate_sequence(spec)
        pis = [soft_policy(solve_soft_q(m, 1e-10), m.mu) for m in mdps]
        trace = RunTrace(columns={"t": np.arange(1, 21)}, policies=pis)
        assert rl_dynamic_regret(trace, spec, tol=1e-10) == pytest.approx(
            0.0, abs=20 * 1e-6
        )

    def test_alignment_error(self):
        spec = steady_goal_spec(10)
        tr = planner_run(spec, ScheduleConfig(mode="online"))
        tr.policies = tr.policies[:-1]
        with pytest.raises(AlignmentError):
            rl_dynamic_regret(tr, spec)

    def test_oracle_schedule_statewise_bound(self):
        # per-state optimization-layer regret against the drifting softmax
        # comparator stays below the per-round trade-off bound, and the
        # occupancy-weighted total below its sqrt form
        eps = 1e-6
        for seed in range(3):
            spec = abrupt_goal_spec(120, (40, 80), seed=seed, jitter=0.05)
            cfg = ScheduleConfig(mode="oracle", c1=1.0, c2=1.0, c=1.0,
                                 lambda_min=0.02, lambda_max=1.0)
            tr = planner_run(spec, cfg, eps=eps, collect_oco=True)
            gaps = tr.oco_gaps          # (T, S) nonnegative loss gaps
            alphas = tr.state_alphas    # (T, S) per-state comparator drift
            lam = tr.column("lambda")
            from driftsched.softmdp import generate_sequence

            mdps = generate_sequence(spec)
            mu = mdps[0].mu
            q_cap = mdps[0].q_bound()
            g_bound = q_cap + mu * (1.0 + abs(math.log(eps)))
            consts = ExplicitConstants.derive(cfg, g_bound, k=3, eps=eps,
                                              lambda1=cfg.lambda_min)
            with np.errstate(divide="ignore", invalid="ignore"):
                drift_terms = np.where(alphas[1:] > 0,
                                       consts.c1 * alphas[1:] / lam[1:, None], 0.0)
            statewise_rhs = consts.c0 + drift_terms.sum(axis=0) + consts.c2 * lam[1:].sum()
            statewise_lhs = gaps.sum(axis=0)
            assert (statewise_lhs <= statewise_rhs + 1e-8).all()

            alpha_bar = alphas.max(axis=1)
            sqrt_rhs = consts.c0 + 2.0 * math.sqrt(consts.c1 * consts.c2) * np.sqrt(
                alpha_bar[1:]).sum()
            weighted = 0.0
            from driftsched.softmdp import occupancy

            for t, mdp in enumerate(mdps):
                d_star = occupancy(mdp, soft_policy(solve_soft_q(mdp, 1e-9), mu))
                weighted += float(d_star @ gaps[t])
            assert weighted <= sqrt_rhs + 1e-8


def one_state_mdp(r=1.0, gamma=0.5, mu=1.0):
    return TabularMdp(np.full((1, 1), r), np.ones((1, 1, 1)), gamma,
                      np.array([1.0]), mu, r_max=1.0)


class TestTdStep:
    def test_zero_learn_rate(self):
        m = one_state_mdp()
        state = TdLearnerState(q=np.zeros((1, 1)), rng=np.random.default_rng(0),
                               learn_rate=0.0, proxy=ProxyState(), current_state=0)
        state, rec = td_step(state, m, ScheduleConfig(mode="fixed"), alpha_t=0.3)
        assert state.q[0, 0] == 0.0
        assert rec["delta"] == pytest.approx(1.0)

    def test_scalar_convergence(self):
        # single state and action: the smoothed target collapses to the
        # plain backup and q approaches r / (1 - gamma) = 2
        m = one_state_mdp(r=1.0, gamma=0.5)
        state = TdLearnerState(q=np.zeros((1, 1)), rng=np.random.default_rng(0),
                               learn_rate=0.2, proxy=ProxyState(), current_state=0)
        cfg = ScheduleConfig(mode="fixed", fixed_value=0.4)
        for _ in range(200):
            state, rec = td_step(state, m, cfg, alpha_t=0.4)
        assert state.q[0, 0] == pytest.approx(2.0, abs=1e-3)
        assert abs(rec["delta"]) <= 1e-3

    def test_requires_positive_temperature(self):
        m = one_state_mdp()
        state = TdLearnerState(q=np.zeros((1, 1)), rng=np.random.default_rng(0),
                               learn_rate=0.1, proxy=ProxyState(), current_state=0)
        with pytest.raises(ValueError):
            td_step(state, m, ScheduleConfig(mode="fixed"), alpha_t=0.0)


class TestTdTrain:
    def test_fixed_mode_constant_lambda(self):
        tr = td_train(steady_goal_spec(300), ScheduleConfig(mode="fixed", fixed_value=0.17),
                      batch_size=10, eval_every=50, episode_len=25, seed=0)
        assert (tr.column("lambda") == 0.17).all()

    def test_same_seed_bit_identical(self):
        spec = abrupt_goal_spec(400, (200,), seed=0)
        cfg = ScheduleConfig(mode="online", c1=0.04, ema_beta=0.9)
        a = td_train(spec, cfg, 10, 50, 25, seed=7)
        b = td_train(spec, cfg, 10, 50, 25, seed=7)
        for name in a.columns:
            assert np.array_equal(a.column(name), b.column(name), equal_nan=True)

    def test_eval_cadence(self):
        tr = td_train(steady_goal_spec(200), ScheduleConfig(mode="fixed"),
                      batch_size=10, eval_every=40, episode_len=25, seed=0)
        ret = tr.column("eval_return")
        evald = np.nonzero(~np.isnan(ret))[0] + 1
        assert list(evald) == [40, 80, 120, 160, 200]

    def test_steady_lambda_decays_after_first_quarter(self):
        # once TD errors die down the prefix-average schedule decays;
        # residual sampling noise may nudge it up, but those nudges must
        # be negligible against the downward drift
        cfg = ScheduleConfig(mode="online", c1=0.04, c2=1.0, ema_beta=0.9)
        horizon = 3000
        starts, ends = [], []
        seeds = list(range(12))
        for tr in td_train_many([steady_goal_spec(horizon)] * len(seeds), [cfg] * len(seeds),
                                seeds, 10, 100, 25, learn_rate=0.25):
            tail = tr.column("lambda")[horizon // 4:]
            diffs = np.diff(tail)
            up = diffs[diffs > 0].sum()
            down = -diffs[diffs < 0].sum()
            assert up <= 0.1 * down
            starts.append(tail[0])
            ends.append(tail[-1])
        assert np.median(ends) < np.median(starts)

    def test_abrupt_proxy_spike_median(self):
        # structural prediction: the drift proxy jumps after the change
        cfg = ScheduleConfig(mode="online", c1=0.04, c2=1.0, ema_beta=0.9)
        tc, horizon = 1500, 2200
        pre, post = [], []
        spec = abrupt_goal_spec(horizon, (tc,), seed=0)
        seeds = list(range(10))
        for tr in td_train_many([spec] * len(seeds), [cfg] * len(seeds), seeds,
                                10, 100, 25, learn_rate=0.25):
            proxy = tr.column("proxy")
            pre.append(proxy[tc - 200:tc].mean())
            post.append(proxy[tc:tc + 200].mean())
        assert np.median(post) > np.median(pre)


def reference_planner_step(state, mdp_t, q_star_t, cfg, eps):
    """planner_step with one SimplexVec and md_step per state row."""
    from driftsched import OmdState, SimplexVec, md_step, regularized_grad
    from driftsched.agent import PlannerState, _planner_lambda
    from driftsched.scheduler import eta_from_lambda
    from driftsched.softmdp import soft_return, soft_values, surrogate_gap

    mu = mdp_t.mu
    pi_star = soft_policy(q_star_t, mu)
    if state.prev_q is None:
        raw = alpha_true = 0.0
    else:
        raw = float(np.abs(q_star_t - state.prev_q).max()) / mu
        pi_star_prev = soft_policy(state.prev_q, mu)
        alpha_true = float(np.abs(pi_star - pi_star_prev).sum(axis=1).max())
    lam, proxy = _planner_lambda(state, cfg, raw, alpha_true)
    eta = eta_from_lambda(lam, state.eta_prev, cfg)
    played = state.policy
    j_star = float(mdp_t.rho @ soft_values(q_star_t, mu))
    j_played = soft_return(mdp_t, played)
    oco_gaps = surrogate_gap(q_star_t, played, mu)
    new_policy = np.empty_like(played)
    for s in range(mdp_t.n_states):
        row = SimplexVec(played[s], eps)
        g_f = -q_star_t[s] + mu * (1.0 + np.log(row.probs))
        g = regularized_grad(g_f, row, lam)
        new_policy[s] = md_step(OmdState(x=row), g, eta, eps).x.probs
    record = {"lambda": lam, "eta": eta, "alpha": alpha_true,
              "proxy": proxy.ema_value, "regret_inc": float(oco_gaps.sum()),
              "regret_rl_inc": j_star - j_played, "eval_return": j_played}
    return PlannerState(policy=new_policy, proxy=proxy, prev_q=np.array(q_star_t),
                        eta_prev=eta, prev_pi=pi_star), record


def drifting_random_spec(pattern, horizon=60, seed=2):
    base = random_mdp(30, 4, gamma=0.9, mu=0.2,
                      rng=np.random.default_rng([seed, 1017]))
    drift = DriftSpec(change_times=(horizon // 2,), magnitude=1.0, period=20,
                      amplitude=0.5, transition_drift=True)
    return SoftMdpSequence(base=base, pattern=pattern, horizon=horizon,
                           drift=drift, seed=seed)


class TestPlannerMatchesPerStateLoop:
    """planner_run's one S x A mirror step equals the per-state loop bit for bit."""

    @pytest.mark.parametrize("pattern", ["periodic", "abrupt"])
    @pytest.mark.parametrize("mode,eps", [("online", 1e-6), ("oracle", 1e-6),
                                          ("fixed", 0.0), ("online", 0.05)])
    def test_columns_and_policies(self, pattern, mode, eps):
        from driftsched.agent import PlannerState, _solved_tables
        from driftsched.softmdp import generate_sequence

        spec = drifting_random_spec(pattern)
        cfg = ScheduleConfig(mode=mode, fixed_value=0.3)
        tr = planner_run(spec, cfg, eps=eps)

        state = PlannerState(policy=np.full((30, 4), 0.25), proxy=ProxyState())
        policies, records = [], []
        for mdp, q in _solved_tables(generate_sequence(spec), 1e-9):
            policies.append(state.policy)
            state, rec = reference_planner_step(state, mdp, q, cfg, eps)
            records.append(rec)
        assert len(tr) == len(records) == len(tr.policies)
        assert np.array_equal(tr.column("t"), np.arange(1, len(records) + 1))
        for name in ("lambda", "eta", "alpha", "proxy", "regret_inc",
                     "regret_rl_inc", "eval_return"):
            want = np.asarray([rec[name] for rec in records])
            assert tr.column(name).dtype == want.dtype, name
            assert np.array_equal(tr.column(name), want), name
        assert np.array_equal(tr.column("regret_cum"),
                              np.cumsum(tr.column("regret_inc")))
        for got, want in zip(tr.policies, policies):
            assert np.array_equal(got, want)
        if eps == 0.05:
            # the floor is active on some row, so truncation was exercised
            assert any((np.abs(p - eps) < 1e-15).any() for p in policies)

    @pytest.mark.parametrize("eps", [0.5, -1e-3, math.nan, math.inf])
    def test_eps_outside_range_rejected_before_round_one(self, eps, monkeypatch):
        from driftsched import InvalidEpsilon, agent

        def no_rounds(*args, **kwargs):
            raise AssertionError("planner_step ran")

        monkeypatch.setattr(agent, "planner_step", no_rounds)
        with pytest.raises(InvalidEpsilon):
            planner_run(drifting_random_spec("abrupt", horizon=5), ScheduleConfig(), eps=eps)

    def test_step_rejects_policy_off_the_simplex(self):
        from driftsched import BoundaryIterate
        from driftsched.agent import PlannerState

        mdp = goal_chain_mdp()
        q = solve_soft_q(mdp, 1e-9)
        bad = np.full((5, 3), 0.4)
        with pytest.raises(ValueError, match="sum to 1"):
            planner_step(PlannerState(policy=bad, proxy=ProxyState()), mdp, q,
                         ScheduleConfig(), 1e-6)
        edge = np.tile([1.0, 0.0, 0.0], (5, 1))
        with pytest.raises(BoundaryIterate):
            planner_step(PlannerState(policy=edge, proxy=ProxyState()), mdp, q,
                         ScheduleConfig(), 0.0)

    def test_state_needs_prev_q_and_prev_pi_together(self):
        from driftsched.agent import PlannerState

        policy, table = np.full((5, 3), 1 / 3), np.zeros((5, 3))
        for half in ({"prev_q": table}, {"prev_pi": policy}):
            with pytest.raises(ValueError, match="both set or both None"):
                PlannerState(policy=policy, proxy=ProxyState(), **half)
        PlannerState(policy=policy, proxy=ProxyState(), prev_q=table, prev_pi=policy)

    def test_one_soft_policy_per_round(self, monkeypatch):
        from driftsched import agent

        calls = []
        real = agent.soft_policy
        monkeypatch.setattr(agent, "soft_policy",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        for collect_oco in (False, True):
            calls.clear()
            tr = planner_run(drifting_random_spec("periodic", horizon=12),
                             ScheduleConfig(), collect_oco=collect_oco)
            assert len(calls) == len(tr) == 12


def reference_planner_run(seq, cfg, eps, tol=1e-9):
    """The per-cell planner_run loop, with its own solve chain: a cold solve,
    then plain value iteration from the last table at each new MDP."""
    from driftsched.agent import PlannerState
    from driftsched.softmdp import generate_sequence, soft_bellman_apply

    if isinstance(seq, SoftMdpSequence):
        mdps, pattern, seed = generate_sequence(seq), seq.pattern, seq.seed
    else:
        mdps, pattern, seed = list(seq), "custom", 0
    n_states, n_actions = mdps[0].rewards.shape
    state = PlannerState(policy=np.full((n_states, n_actions), 1.0 / n_actions),
                         proxy=ProxyState())
    policies, records, alpha_rows = [], [], []
    prev, q_star = None, None
    for mdp_t in mdps:
        if q_star is None:
            q_star = solve_soft_q(mdp_t, tol)
        elif not (mdp_t is prev or (np.array_equal(mdp_t.rewards, prev.rewards) and
                                    np.array_equal(mdp_t.transitions, prev.transitions))):
            q = q_star
            while True:
                q_star = soft_bellman_apply(mdp_t, q)
                if np.abs(q_star - q).max() <= tol * (1.0 - mdp_t.gamma):
                    break
                q = q_star
        prev = mdp_t
        policies.append(state.policy)
        prev_pi = state.prev_pi
        state, rec = planner_step(state, mdp_t, q_star, cfg, eps)
        records.append(rec)
        alpha_rows.append(np.zeros(n_states) if prev_pi is None
                          else np.abs(state.prev_pi - prev_pi).sum(axis=1))
    inc = np.asarray([float(rec["oco_gaps"].sum()) for rec in records])
    columns = {"t": np.arange(1, len(records) + 1)}
    for name in ("lambda", "eta", "alpha", "proxy"):
        columns[name] = np.asarray([rec[name] for rec in records])
    columns.update(regret_inc=inc, regret_cum=np.cumsum(inc))
    for name in ("regret_rl_inc", "eval_return"):
        columns[name] = np.asarray([rec[name] for rec in records])
    meta = {"agent": "planner", "pattern": pattern, "seed": seed, "eps": eps,
            "tol": tol, "mu": mdps[0].mu, "c": cfg.c, "lambda_min": cfg.lambda_min,
            "lambda_max": cfg.lambda_max}
    return columns, meta, policies, np.vstack([rec["oco_gaps"] for rec in records]), \
        np.vstack(alpha_rows)


def custom_planner_list():
    """Repeats by object and by equal arrays, drift, and a warm start into
    another gamma."""
    from dataclasses import replace

    from driftsched.softmdp import generate_sequence

    m = generate_sequence(drifting_random_spec("periodic", horizon=12))
    twin = replace(m[4], rewards=m[4].rewards.copy())
    far = replace(m[8], gamma=0.95)
    return [m[0], m[0], m[2], m[4], twin, twin, m[7], far, far, m[10], m[0], m[11]]


PLANNER_SCHEDULES = {
    "online": ScheduleConfig(mode="online"),
    "oracle": ScheduleConfig(mode="oracle", c=2.0, lambda_min=0.02),
    "fixed": ScheduleConfig(mode="fixed", fixed_value=0.3),
}


@functools.cache
def planner_case(seq_name):
    return custom_planner_list() if seq_name == "custom" else drifting_random_spec(seq_name)


@functools.cache
def reference_planner_cell(seq_name, mode):
    return reference_planner_run(planner_case(seq_name), PLANNER_SCHEDULES[mode], 1e-6)


class TestPlannerRunMany:
    """planner_run_many equals the per-cell planner_run loop bit for bit."""

    @pytest.mark.parametrize("seq", ["periodic", "abrupt", "custom"])
    @pytest.mark.parametrize("modes,collect_oco", [
        (("online",), True), (("fixed", "oracle"), True),
        (("online", "oracle", "fixed"), False), (("oracle", "fixed", "online"), True)])
    def test_matches_per_cell_loop(self, seq, modes, collect_oco):
        from driftsched import planner_run_many

        cfgs = [PLANNER_SCHEDULES[m] for m in modes]
        traces = planner_run_many(planner_case(seq), cfgs, eps=1e-6, collect_oco=collect_oco)
        assert len(traces) == len(cfgs)
        for tr, mode in zip(traces, modes):
            columns, meta, policies, gaps, alphas = reference_planner_cell(seq, mode)
            assert list(tr.columns) == list(columns)
            for name, want in columns.items():
                assert tr.column(name).dtype == want.dtype, name
                assert np.array_equal(tr.column(name), want, equal_nan=True), name
            assert tr.meta == meta
            assert [type(v) for v in tr.meta.values()] == [type(v) for v in meta.values()]
            assert len(tr.policies) == len(policies)
            for got, want in zip(tr.policies, policies):
                assert np.array_equal(got, want)
            if collect_oco:
                assert np.array_equal(tr.oco_gaps, gaps)
                assert np.array_equal(tr.state_alphas, alphas)
            else:
                assert not hasattr(tr, "oco_gaps") and not hasattr(tr, "state_alphas")

    def test_one_solve_chain_for_every_schedule(self, monkeypatch):
        from driftsched import planner_run_many, softmdp

        sweeps = []
        real = softmdp.soft_bellman_apply
        monkeypatch.setattr(softmdp, "soft_bellman_apply",
                            lambda *a: sweeps.append(1) or real(*a))
        spec = drifting_random_spec("periodic", horizon=20)
        planner_run(spec, PLANNER_SCHEDULES["online"])
        one = len(sweeps)
        sweeps.clear()
        planner_run_many(spec, list(PLANNER_SCHEDULES.values()))
        assert one > 20 and len(sweeps) == one

    def test_planner_run_is_one_schedule(self):
        from driftsched import planner_run_many

        spec = drifting_random_spec("abrupt", horizon=15)
        cfg = PLANNER_SCHEDULES["oracle"]
        alone = planner_run(spec, cfg, eps=0.05, collect_oco=True)
        shared = planner_run_many(spec, [PLANNER_SCHEDULES["online"], cfg], eps=0.05,
                                  collect_oco=True)[1]
        for name in alone.columns:
            assert np.array_equal(alone.column(name), shared.column(name)), name
        assert alone.meta == shared.meta
        assert np.array_equal(alone.oco_gaps, shared.oco_gaps)

    def test_boundary_checked_before_round_one(self, monkeypatch):
        from driftsched import InvalidEpsilon, LengthMismatch, agent, planner_run_many

        def no_rounds(*args, **kwargs):
            raise AssertionError("ran a round")

        monkeypatch.setattr(agent, "planner_step", no_rounds)
        monkeypatch.setattr(agent, "solve_soft_q", no_rounds)
        spec = drifting_random_spec("abrupt", horizon=5)
        with pytest.raises(LengthMismatch):
            planner_run_many(spec, [])
        with pytest.raises(LengthMismatch):
            planner_run_many(spec, iter(()))
        with pytest.raises(InvalidEpsilon):
            planner_run_many(spec, list(PLANNER_SCHEDULES.values()), eps=0.3)


def reference_td_step(state, mdp_t, alpha_t):
    """td_step as one learner's rng.choice draws and row functions."""
    from driftsched.softmdp import soft_values

    s = state.current_state
    probs = soft_policy(state.q[s][None, :], alpha_t)[0]
    a = int(state.rng.choice(mdp_t.n_actions, p=probs))
    s_next = int(state.rng.choice(mdp_t.n_states, p=mdp_t.transitions[s, a]))
    r = float(mdp_t.rewards[s, a])
    target = r + mdp_t.gamma * float(soft_values(state.q[s_next], alpha_t))
    delta = target - state.q[s, a]
    state.q[s, a] += state.learn_rate * delta
    state.current_state = s_next
    return {"s": s, "a": a, "s_next": s_next, "r": r, "delta": delta}


def reference_td_train(seq, cfg, batch_size, eval_every, episode_len, seed,
                       learn_rate):
    """The per-learner, per-step td_train loop."""
    from driftsched import td_quantile_proxy, update_proxy
    from driftsched.scheduler import online_lambda
    from driftsched.softmdp import generate_sequence, soft_return

    if isinstance(seq, SoftMdpSequence):
        mdps, pattern, seq_seed = generate_sequence(seq), seq.pattern, seq.seed
    else:
        mdps, pattern, seq_seed = list(seq), "custom", 0
    horizon = len(mdps)
    rng = np.random.default_rng(seed)
    alpha = cfg.fixed_value if cfg.mode == "fixed" else cfg.lambda_min
    state = TdLearnerState(q=np.zeros(mdps[0].rewards.shape), rng=rng,
                           learn_rate=learn_rate, proxy=ProxyState(),
                           current_state=0)
    lam_col, proxy_col = np.empty(horizon), np.empty(horizon)
    eval_col = np.full(horizon, np.nan)
    batch = []
    for t in range(1, horizon + 1):
        mdp_t = mdps[t - 1]
        if (t - 1) % episode_len == 0:
            state.current_state = int(rng.choice(mdp_t.n_states, p=mdp_t.rho))
        batch.append(abs(reference_td_step(state, mdp_t, alpha)["delta"]))
        lam_col[t - 1] = alpha
        if t % batch_size == 0:
            raw = td_quantile_proxy(batch, cfg.quantile_q)
            state.proxy = update_proxy(state.proxy, raw, cfg)
            if cfg.mode == "online":
                alpha = online_lambda(state.proxy, cfg)
            batch = []
        proxy_col[t - 1] = state.proxy.ema_value
        if t % eval_every == 0:
            eval_col[t - 1] = soft_return(mdp_t, soft_policy(state.q, alpha))
    columns = {
        "t": np.arange(1, horizon + 1), "lambda": lam_col,
        "eta": np.zeros(horizon), "alpha": np.full(horizon, np.nan),
        "proxy": proxy_col, "regret_inc": np.zeros(horizon),
        "regret_cum": np.zeros(horizon),
        "regret_rl_inc": np.full(horizon, np.nan), "eval_return": eval_col,
    }
    meta = {"agent": "td", "pattern": pattern, "seed": seed, "seq_seed": seq_seed,
            "batch_size": batch_size, "eval_every": eval_every,
            "episode_len": episode_len, "learn_rate": learn_rate,
            "mu": mdps[0].mu}
    return columns, meta


def assert_matches_reference(traces, runs, knobs):
    assert len(traces) == len(runs)
    for tr, (seq, cfg, seed) in zip(traces, runs):
        columns, meta = reference_td_train(seq, cfg, *knobs[:3], seed, knobs[3])
        assert list(tr.columns) == list(columns)
        for name, want in columns.items():
            assert tr.column(name).dtype == want.dtype, name
            assert np.array_equal(tr.column(name), want, equal_nan=True), name
        assert tr.meta == meta


def random_td_spec(pattern, horizon=230, seed=4):
    base = random_mdp(12, 4, gamma=0.9, mu=0.2, rng=np.random.default_rng([seed, 7]))
    drift = DriftSpec(change_times=(60, 150), magnitude=0.4, period=50,
                      amplitude=0.4, transition_drift=True)
    return SoftMdpSequence(base=base, pattern=pattern, horizon=horizon,
                           drift=drift, seed=seed)


ONLINE_TD = ScheduleConfig(mode="online", c1=0.04, ema_beta=0.9)
FIXED_TD = ScheduleConfig(mode="fixed", fixed_value=0.07)


class TestTdLockstep:
    """td_train_many equals the per-learner reference loop bit for bit."""

    def test_step_matches_choice_reference(self):
        mdp = random_mdp(6, 4, rng=np.random.default_rng(3))
        q0 = np.random.default_rng(4).normal(size=(6, 4))
        mine = TdLearnerState(q=q0.copy(), rng=np.random.default_rng(9),
                              learn_rate=0.3, proxy=ProxyState(), current_state=2)
        ref = TdLearnerState(q=q0.copy(), rng=np.random.default_rng(9),
                             learn_rate=0.3, proxy=ProxyState(), current_state=2)
        for i in range(300):
            alpha = 0.05 + 0.01 * (i % 7)
            mine, rec = td_step(mine, mdp, ONLINE_TD, alpha)
            want = reference_td_step(ref, mdp, alpha)
            assert rec == want
            assert type(rec["a"]) is int and type(rec["s_next"]) is int
        assert np.array_equal(mine.q, ref.q)
        assert mine.current_state == ref.current_state
        assert mine.rng.random() == ref.rng.random()

    def test_predrawn_uniforms_match_choice(self):
        from driftsched.agent import _cdf, _choose

        p = np.array([0.2, 0.5, 0.3])
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        want = [rng_a.choice(3, p=p) for _ in range(1000)]
        got = _choose(np.tile(_cdf(p), (1000, 1)), rng_b.random((1000, 1)))
        assert np.array_equal(got, want)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("n_learners", [1, 4, 12])
    def test_chain_batches(self, n_learners):
        runs = [(abrupt_goal_spec(300, (140,), seed=i % 3),
                 (ONLINE_TD, FIXED_TD)[i % 2], 100 + i) for i in range(n_learners)]
        knobs = (10, 50, 25, 0.25)
        assert_matches_reference(td_train_many(*map(list, zip(*runs)), *knobs),
                                 runs, knobs)

    def test_all_patterns_transition_drift_ragged_knobs(self):
        # episode_len 7, batch_size 13 and eval_every 37 do not divide T = 230
        patterns = ("steady", "abrupt", "linear", "periodic", "mixed")
        cfg_q = ScheduleConfig(mode="online", quantile_q=0.5, ema_beta=0.8)
        runs = [(random_td_spec(p), cfg, 5 + i)
                for i, p in enumerate(patterns) for cfg in (cfg_q, FIXED_TD)]
        knobs = (13, 37, 7, 0.1)
        assert_matches_reference(td_train_many(*map(list, zip(*runs)), *knobs),
                                 runs, knobs)

    def test_custom_mdp_lists(self):
        a = random_mdp(5, 3, rng=np.random.default_rng(1))
        b = random_mdp(5, 3, gamma=0.8, rng=np.random.default_rng(2))
        lists = [[a] * 40 + [b] * 40, [b, a] * 40,
                 [random_mdp(5, 3, rng=np.random.default_rng(i)) for i in range(80)]]
        runs = [(mdps, cfg, seed) for mdps, cfg, seed in
                zip(lists, (ONLINE_TD, FIXED_TD, ONLINE_TD), (0, 1, 2))]
        knobs = (6, 20, 9, 0.2)
        assert_matches_reference(td_train_many(*map(list, zip(*runs)), *knobs),
                                 runs, knobs)

    def test_numpy_integer_knobs(self):
        spec = steady_goal_spec(60)
        want = td_train(spec, ONLINE_TD, 10, 20, 7, seed=1)
        got = td_train(spec, ONLINE_TD, np.int64(10), np.int32(20), np.int64(7), seed=1)
        for name in want.columns:
            assert np.array_equal(got.column(name), want.column(name), equal_nan=True)

    def test_row_independent_of_batch(self):
        spec = random_td_spec("mixed", horizon=180)
        alone = td_train(spec, ONLINE_TD, 10, 40, 15, seed=8, learn_rate=0.2)
        crowd = td_train_many([random_td_spec("linear", 180), spec, spec],
                              [FIXED_TD, ONLINE_TD, FIXED_TD], [3, 8, 8],
                              10, 40, 15, learn_rate=0.2)
        for name in alone.columns:
            assert np.array_equal(alone.column(name), crowd[1].column(name),
                                  equal_nan=True)

    @pytest.mark.parametrize("kwargs,err", [
        ({"seeds": [0]}, "equally long"),
        ({"batch_size": 0}, "ints >= 1"),
        ({"eval_every": 2.0}, "ints >= 1"),
        ({"episode_len": True}, "ints >= 1"),
        ({"learn_rate": math.nan}, "finite"),
    ])
    def test_boundary_validation(self, kwargs, err):
        args = {"seqs": [steady_goal_spec(20)] * 2, "cfgs": [FIXED_TD] * 2,
                "seeds": [0, 1]} | kwargs
        with pytest.raises(ValueError, match=err):
            td_train_many(**args)

    @pytest.mark.parametrize("batch_size", [10, 4000])
    def test_diverging_learner_raises(self, batch_size):
        # learn_rate 10 overshoots each update ninefold and Q overflows; with
        # batch_size > T only the check after the last step sees the errors
        spec = SoftMdpSequence(base=random_mdp(6, 3, rng=np.random.default_rng(1)),
                               pattern="steady", horizon=3000, drift=DriftSpec(), seed=0)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="diverged"):
            td_train_many([spec] * 2, [ONLINE_TD, FIXED_TD], [1, 2], batch_size, 50, 25,
                          learn_rate=10.0)

    def test_step_on_diverged_row_raises(self):
        mdp = random_mdp(4, 3, rng=np.random.default_rng(0))
        for bad in (math.inf, math.nan):
            q = np.zeros((4, 3))
            q[1, 2] = bad
            state = TdLearnerState(q=q, rng=np.random.default_rng(0), learn_rate=0.1,
                                   proxy=ProxyState(), current_state=1)
            with pytest.raises(ValueError, match="diverged"):
                td_step(state, mdp, FIXED_TD, 0.1)
        state.current_state = 0  # a finite row still steps
        td_step(state, mdp, FIXED_TD, 0.1)

    def test_shared_transitions_share_one_cdf(self):
        from driftsched.agent import _mdp_tables
        from driftsched.softmdp import generate_sequence

        spec = SoftMdpSequence(
            base=random_mdp(6, 3, rng=np.random.default_rng(5)), pattern="periodic",
            horizon=90, drift=DriftSpec(period=20, amplitude=0.5), seed=1)
        mdps = generate_sequence(spec)
        assert len({id(m) for m in mdps}) > 10
        rewards, _, _, next_cdf, k = _mdp_tables(mdps)
        assert rewards.shape == (90, 6, 3) and next_cdf.shape == (1, 6, 3, 6)
        assert (k == 0).all()

    def test_mixed_horizons_and_shapes_rejected(self):
        from driftsched import LengthMismatch, ShapeMismatch

        with pytest.raises(LengthMismatch):
            td_train_many([steady_goal_spec(20), steady_goal_spec(30)],
                          [FIXED_TD] * 2, [0, 1])
        with pytest.raises(LengthMismatch):
            td_train_many([[], []], [FIXED_TD] * 2, [0, 1])
        with pytest.raises(ShapeMismatch):
            td_train_many([[goal_chain_mdp()] * 20, [random_mdp(5, 4)] * 20],
                          [FIXED_TD] * 2, [0, 1])
