import bisect
import functools
import math
import operator
import tracemalloc
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from driftsched import (
    DriftSpec,
    ExplicitConstants,
    ProxyState,
    ScheduleConfig,
    SoftMdpSequence,
    TabularMdp,
    goal_chain_mdp,
    planner_run,
    random_mdp,
    soft_policy,
    solve_soft_q,
    td_train,
    td_train_many,
)
from driftsched.agent import _cached_row, _choice, _row_sum, _td_step
from driftsched.softmdp import _plan
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


def count_solves(monkeypatch):
    """Live counts of softmdp._solve calls and of the soft passes made inside
    them (Newton steps) and outside them (the pass of each solved Q*_t)."""
    from driftsched import softmdp

    calls, inside = {"solves": 0, "in_solves": 0, "of_solved": 0}, []
    real_solve, real_pass = softmdp._solve, softmdp._soft_pass

    def solve(*a, **k):
        calls["solves"] += 1
        inside.append(1)
        try:
            return real_solve(*a, **k)
        finally:
            inside.pop()

    def soft_pass(*a):
        calls["in_solves" if inside else "of_solved"] += 1
        return real_pass(*a)

    monkeypatch.setattr(softmdp, "_solve", solve)
    monkeypatch.setattr(softmdp, "_soft_pass", soft_pass)
    return calls


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
        # with ema_beta = 0 the proxy column is the raw reading ||dQ*||_inf / mu
        spec = abrupt_goal_spec(60, (20, 45), seed=3, jitter=0.05)
        tr = planner_run(spec, ScheduleConfig(mode="online", ema_beta=0.0))
        raws = tr.column("proxy")
        spike_idx = set(np.nonzero(raws > 1e-6)[0] + 1)
        assert spike_idx == {20, 45}

    def test_regret_increments_nonnegative(self):
        tr = planner_run(abrupt_goal_spec(80, (40,), seed=1), ScheduleConfig(mode="online"))
        assert (tr.column("regret_rl_inc") >= -1e-6).all()

    def test_steady_regret_shrinks(self):
        tr = planner_run(steady_goal_spec(200), ScheduleConfig(mode="online"))
        inc = tr.column("regret_rl_inc")
        assert inc[-50:].mean() < inc[:50].mean()

    @pytest.mark.parametrize("change", [{"gamma": 0.95}, {"mu": 0.5}])
    def test_gamma_or_mu_change_solves_again(self, change):
        # equal rewards and transitions, but Q* depends on gamma and mu too
        from dataclasses import replace

        from driftsched.softmdp import soft_values

        m = random_mdp(6, 3, rng=np.random.default_rng(0))
        seq = [m, replace(m, **change)]
        j_star = [float(mdp.rho @ soft_values(solve_soft_q(mdp, 1e-9), mdp.mu))
                  for mdp in seq]
        tr = planner_run(seq, ScheduleConfig(mode="fixed", fixed_value=0.3))
        assert tr.column("eval_return") + tr.column("regret_rl_inc") == pytest.approx(
            j_star, abs=1e-7)

    def test_start_change_reuses_the_solve_not_j_star(self, monkeypatch):
        # Q* does not depend on rho, but J* = rho . V* does
        from dataclasses import replace

        from driftsched.softmdp import soft_values

        m = random_mdp(6, 3, rng=np.random.default_rng(0))
        seq = [m, replace(m, rho=np.eye(6)[2])]
        v_star = soft_values(solve_soft_q(m, 1e-9), m.mu)
        calls = count_solves(monkeypatch)
        tr = planner_run(seq, ScheduleConfig(mode="fixed", fixed_value=0.3))
        assert calls["solves"] == 1
        j_star = [float(mdp.rho @ v_star) for mdp in seq]
        assert abs(j_star[1] - j_star[0]) > 0.1
        assert tr.column("eval_return") + tr.column("regret_rl_inc") == pytest.approx(
            j_star, abs=1e-12)
        assert tr.column("alpha")[1] == 0.0 and not tr.state_alphas[1].any()

    def test_oracle_schedule_statewise_bound(self):
        # per-state optimization-layer regret against the drifting softmax
        # comparator stays below the per-round trade-off bound, and the
        # occupancy-weighted total below its sqrt form
        eps = 1e-6
        for seed in range(3):
            spec = abrupt_goal_spec(120, (40, 80), seed=seed, jitter=0.05)
            cfg = ScheduleConfig(mode="oracle", c1=1.0, c2=1.0, c=1.0,
                                 lambda_min=0.02, lambda_max=1.0)
            tr = planner_run(spec, cfg, eps=eps)
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


def one_learner_step(q, m, alpha, learn_rate, rng, cache=None):
    """One _td_step of a single learner with table q (nested lists), in state 0,
    on the one MDP m (entry 0 of its plan's stack), reading its row directly or
    through the row cache given."""
    u_act, u_next = rng.random(2).tolist()
    return _td_step([q], [0], [u_act], [u_next], [alpha], learn_rate,
                    [(_plan([m])[0], 0, cache, float(m.gamma))], [0.0], _row_sum(1))


class TestTdStep:
    """The TD step kernel, _td_step, on a one-state learner."""

    def test_zero_learn_rate(self):
        q = [[0.0]]
        _, delta = one_learner_step(q, one_state_mdp(), 0.3, 0.0,
                                    np.random.default_rng(0))
        assert q[0][0] == 0.0
        assert delta[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("cached", [False, True])
    def test_scalar_convergence(self, cached):
        # single state and action: the smoothed target collapses to the
        # plain backup and q approaches r / (1 - gamma) = 2
        m = one_state_mdp(r=1.0, gamma=0.5)
        q, rng, cache = [[0.0]], np.random.default_rng(0), [None] if cached else None
        for _ in range(200):
            _, delta = one_learner_step(q, m, 0.4, 0.2, rng, cache)
        assert q[0][0] == pytest.approx(2.0, abs=1e-3)
        assert abs(delta[0]) <= 1e-3

    def test_requires_positive_temperature(self):
        # the learner's temperature is its schedule's, and a schedule refuses 0
        with pytest.raises(ValueError, match="fixed_value must be positive"):
            td_train(steady_goal_spec(10), ScheduleConfig(mode="fixed", fixed_value=0.0))


# a small pool makes ties common; huge entries overflow sums, tiny ones are subnormal
STEP_VALUES = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, 0.1, 2.5, 1e16, -1e16, 1e300, -1e300,
                     np.finfo(float).max, 1e-300, 5e-324)),
    st.floats(-1e308, 1e308),
    st.floats(0.0, 1.0),
)


def step_rows(min_len, max_len):
    """(B, n) arrays, one learner a row, as the step's row functions see them."""
    return hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(min_len, max_len)),
                      elements=STEP_VALUES)


class TestStepNumpyFacts:
    """The numpy facts _td_step rests on, over rows of 1-16 entries: plain float
    arithmetic has a row sum's bits below 8 entries, a 1-D sum has a stacked
    row's, and exp, log1p and log of a flat list have a stacked call's."""

    @settings(max_examples=400, deadline=None)
    @given(step_rows(1, 7))
    @example(np.full((2, 3), -0.0))
    @example(np.array([[1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]]))
    def test_short_rows_sum_left_to_right(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            want = x.sum(axis=-1)
        for row, total in zip(x.tolist(), want.tolist()):
            left_to_right = functools.reduce(operator.add, row, 0.0)
            assert np.float64(left_to_right).tobytes() == np.float64(total).tobytes()
            assert np.float64(_row_sum(len(row))(row)).tobytes() == np.float64(total).tobytes()

    def test_eight_entries_sum_pairwise(self):
        # why a wide row stays with numpy: its pairwise sum adds the ones to
        # each other before they meet 1e16, while left to right each 1 rounds away
        row = [1e16] + [1.0] * 7
        assert functools.reduce(operator.add, row, 0.0) == 1e16
        assert np.array([row]).sum(axis=-1)[0] == _row_sum(len(row))(row) == 1e16 + 6

    @settings(max_examples=400, deadline=None)
    @given(step_rows(1, 16))
    @example(np.array([[1e16] + [1.0] * 15, [1e-300] * 16]))
    @example(np.full((3, 9), 2.5))
    def test_one_row_sum_has_the_stacked_bits(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            want = x.sum(axis=-1)
            for b, row in enumerate(x):
                assert np.add.reduce(row).tobytes() == want[b].tobytes()
                assert np.float64(_row_sum(len(row))(row.tolist())).tobytes() == want[b].tobytes()

    @settings(max_examples=400, deadline=None)
    @given(step_rows(1, 16))
    @example(np.array([[0.0, -np.inf, np.nan, -745.2, -708.4, 1e-300]]))
    def test_flat_calls_have_the_stacked_bits(self, x):
        with np.errstate(all="ignore"):
            flat = x.ravel().tolist()
            assert np.exp(flat).tobytes() == np.exp(x).tobytes()
            # the step's exp arguments are shifted rows, at most 0
            assert np.exp([-abs(v) for v in flat]).tobytes() == np.exp(-np.abs(x)).tobytes()
            assert np.log1p([abs(v) for v in flat]).tobytes() == np.log1p(np.abs(x)).tobytes()
            col = np.abs(x[:, :1])
            assert np.log1p(col[:, 0].tolist()).tobytes() == np.log1p(col)[:, 0].tobytes()

    @settings(max_examples=400, deadline=None)
    @given(step_rows(1, 16), st.one_of(st.floats(1e-300, 1e300), st.sampled_from((0.05, 1.0))))
    @example(np.array([[-1e-320, 1e-320, 0.0, -0.0]]), 3.0)
    @example(np.array([[1e300, 2e300, -np.inf]]), 1e-10)
    def test_policy_shift_divides_the_max(self, x, al):
        # _td_step shifts a policy row by max(v) / al, not by max(v / al): the
        # two agree but in a zero's sign, which exp maps to 1.0 either way
        with np.errstate(all="ignore"):
            for row in x.tolist():
                by_entry = [v / al for v in row]
                want = np.exp([v - max(by_entry) for v in by_entry])
                got = np.exp([v / al - max(row) / al for v in row])
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_learners", [1, 2, 4, 12])
    def test_log_table_has_the_stacked_bits(self, n_learners):
        # _td_step reads log(ties) from one table instead of a (B, 1) call
        table = np.log(np.arange(1.0, 17.0))
        counts = np.random.default_rng(n_learners).integers(1, 17, (50, n_learners, 1))
        for col in counts.astype(float):
            assert np.log(col)[:, 0].tobytes() == table[col[:, 0].astype(int) - 1].tobytes()


def cached_draw(row, u):
    """The step's draw of s' from a cached row: bisect_right on its stored cdf."""
    stack = SimpleNamespace(transitions=np.array([[[row]]]), rewards=np.zeros((1, 1, 1)))
    return bisect.bisect_right(_cached_row(stack, 0, 0, 0)[1], u)


def cdf_boundaries(row):
    """Each entry of the row's cdf normalized as Generator.choice builds it, and
    its neighbours, kept in [0, 1)."""
    cdf = np.cumsum(row)
    cdf /= cdf[-1]
    near = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0), [0.0]])
    return near[(near >= 0.0) & (near < 1.0)].tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from((0.0, 5e-324, 1e-310, 1e-300, 1e-17, 0.3, 1.0, 7.0)),
                min_size=1, max_size=16).filter(lambda w: sum(w) > 0), st.integers(0, 2**32 - 1))
@example([5e-324, 0.0, 1.0], 0)
@example([0.3, 0.0, 0.0, 1e-310, 0.3], 1)
def test_choice_matches_generator_choice(weights, seed):
    # _choice and a cached row's bisect draw, on rows with zeros and subnormals
    p = np.array(weights) / sum(weights)
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    want = [int(rng_a.choice(len(p), p=p)) for _ in range(20)]
    us = rng_b.random(20).tolist()
    assert [_choice(p.tolist(), u) for u in us] == want
    assert [cached_draw(p.tolist(), u) for u in us] == want
    cdf = np.cumsum(p) / np.cumsum(p)[-1]
    for u in cdf_boundaries(p):  # choice's searchsorted at u on and beside each cdf entry
        want = int(np.searchsorted(cdf, u, side="right"))
        assert cached_draw(p.tolist(), u) == _choice(p.tolist(), u) == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from((0.0, -1e-11, -5e-324, 1e-300, 0.2, 0.5)), min_size=2,
                max_size=16).filter(lambda w: sum(w) > 0.1))
@example([0.5, -1e-11, 0.5])
def test_cached_draw_on_a_cdf_that_steps_down(weights):
    # tiny negatives pass TabularMdp (>= -ROW_TOL), so a cdf can step down, which
    # Generator.choice refuses; the cached draw still counts as _choice does
    p = np.array(weights) / sum(weights)
    for u in cdf_boundaries(p) + [0.25, 0.5, 0.999]:
        assert cached_draw(p.tolist(), u) == _choice(p.tolist(), u)


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


@dataclass(frozen=True)
class RefPlannerState:
    """One planner's policy and schedule state between reference rounds;
    prev_q and prev_pi are the last round's solved table and its soft policy."""

    policy: np.ndarray
    proxy: ProxyState = ProxyState()
    prev_q: np.ndarray | None = None
    eta_prev: float = 0.0
    prev_pi: np.ndarray | None = None


def reference_planner_step(state, mdp_t, q_star_t, cfg, eps):
    """One planner round with per-round schedule rules and one SimplexVec and
    md_step per state row; returns the next state and the round's record."""
    from driftsched import SimplexVec, online_lambda, oracle_lambda, update_proxy
    from driftsched.scheduler import eta_from_lambda
    from omd_reference import OmdState, md_step, regularized_grad
    from driftsched.softmdp import soft_return, soft_values, surrogate_gap

    mu = mdp_t.mu
    pi_star = soft_policy(q_star_t, mu)
    if state.prev_q is None:
        raw = alpha_true = 0.0
    else:
        raw = float(np.abs(q_star_t - state.prev_q).max()) / mu
        pi_star_prev = soft_policy(state.prev_q, mu)
        alpha_true = float(np.abs(pi_star - pi_star_prev).sum(axis=1).max())
    proxy = update_proxy(state.proxy, raw, cfg)
    if cfg.mode == "fixed":
        lam = cfg.fixed_value
    elif cfg.mode == "oracle":
        lam = oracle_lambda(alpha_true, cfg)
    else:
        lam = online_lambda(proxy, cfg)
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
              "regret_rl_inc": j_star - j_played, "eval_return": j_played,
              "oco_gaps": oco_gaps}
    return RefPlannerState(policy=new_policy, proxy=proxy, prev_q=np.array(q_star_t),
                           eta_prev=eta, prev_pi=pi_star), record


def drifting_random_spec(pattern, horizon=60, seed=2):
    base = random_mdp(30, 4, gamma=0.9, mu=0.2,
                      rng=np.random.default_rng([seed, 1017]))
    drift = DriftSpec(change_times=(horizon // 2,) if horizon > 3 else (), magnitude=1.0,
                      period=20, amplitude=0.5, transition_drift=True)
    return SoftMdpSequence(base=base, pattern=pattern, horizon=horizon,
                           drift=drift, seed=seed)


class TestPlannerMatchesPerStateLoop:
    """planner_run's one S x A mirror step equals the per-state loop bit for bit."""

    @pytest.mark.parametrize("pattern", ["periodic", "abrupt"])
    @pytest.mark.parametrize("mode,eps", [("online", 1e-6), ("oracle", 1e-6),
                                          ("fixed", 0.0), ("online", 0.05)])
    def test_columns_and_policies(self, pattern, mode, eps):
        from driftsched.softmdp import _plan, _solved_chain, generate_sequence

        spec = drifting_random_spec(pattern)
        cfg = ScheduleConfig(mode=mode, fixed_value=0.3)
        tr = planner_run(spec, cfg, eps=eps)

        state = RefPlannerState(policy=np.full((30, 4), 0.25))
        policies, records = [], []
        for mdp, (q, _, _) in zip(generate_sequence(spec), _solved_chain(*_plan(spec), 1e-9)):
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
            raise AssertionError("a mirror step ran")

        monkeypatch.setattr(agent, "_mirror_step", no_rounds)
        with pytest.raises(InvalidEpsilon):
            planner_run(drifting_random_spec("abrupt", horizon=5), ScheduleConfig(), eps=eps)

    def test_one_soft_policy_per_round(self, monkeypatch):
        calls = count_solves(monkeypatch)
        tr = planner_run(drifting_random_spec("periodic", horizon=12), ScheduleConfig())
        assert calls["of_solved"] == len(tr) == 12


def reference_solve(mdp, tol, q):
    """Soft policy iteration from q, each step a dense solve for the values of
    pi = softmax(q / mu); returns T q once ||T q - q|| <= tol (1 - gamma)."""
    from driftsched.softmdp import soft_bellman_apply

    n_states = mdp.rewards.shape[0]
    while True:
        tq = soft_bellman_apply(mdp, q)
        if np.abs(tq - q).max() <= tol * (1.0 - mdp.gamma):
            return tq
        pi = soft_policy(q, mdp.mu)
        with np.errstate(divide="ignore", invalid="ignore"):
            neg_ent = np.where(pi > 0.0, pi * np.log(np.where(pi > 0.0, pi, 1.0)), 0.0)
        p_pi = np.einsum("sa,saz->sz", pi, mdp.transitions)
        v = np.linalg.solve(np.eye(n_states) - mdp.gamma * p_pi,
                            (pi * mdp.rewards).sum(axis=1) - mdp.mu * neg_ent.sum(axis=1))
        q = mdp.rewards + mdp.gamma * (mdp.transitions @ v)


def reference_planner_run(seq, cfg, eps, tol=1e-9):
    """The per-cell planner_run loop, with its own solve chain: soft policy
    iteration, cold at the first MDP, then warm from the last table at each
    new MDP."""
    from driftsched.softmdp import generate_sequence

    if isinstance(seq, SoftMdpSequence):
        mdps, pattern, seed = generate_sequence(seq), seq.pattern, seq.seed
    else:
        mdps, pattern, seed = list(seq), "custom", 0
    n_states, n_actions = mdps[0].rewards.shape
    state = RefPlannerState(policy=np.full((n_states, n_actions), 1.0 / n_actions))
    policies, records, alpha_rows = [], [], []
    prev, q_star = None, None
    for mdp_t in mdps:
        if q_star is None:
            q_star = reference_solve(mdp_t, tol, np.zeros_like(mdp_t.rewards))
        elif not (mdp_t is prev or (np.array_equal(mdp_t.rewards, prev.rewards) and
                                    np.array_equal(mdp_t.transitions, prev.transitions) and
                                    (mdp_t.gamma, mdp_t.mu) == (prev.gamma, prev.mu))):
            q_star = reference_solve(mdp_t, tol, q_star)
        prev = mdp_t
        policies.append(state.policy)
        prev_pi = state.prev_pi
        state, rec = reference_planner_step(state, mdp_t, q_star, cfg, eps)
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
    """A case name is a sequence, with "-T" for a horizon T other than its own
    (a custom list is repeated to length T)."""
    name, _, horizon = seq_name.partition("-")
    if name == "custom":
        mdps = custom_planner_list()
        return (mdps * 3)[:int(horizon)] if horizon else mdps
    return drifting_random_spec(name, *(int(horizon),) if horizon else ())


@functools.cache
def reference_planner_cell(seq_name, mode):
    return reference_planner_run(planner_case(seq_name), PLANNER_SCHEDULES[mode], 1e-6)


class TestPlannerRunMany:
    """planner_run_many equals the per-cell planner_run loop bit for bit."""

    # 1, 31 and 33 rounds: evaluation chunks that the (schedule, round) entries do not fill
    @pytest.mark.parametrize("seq", ["periodic", "abrupt", "custom",
                                     "periodic-1", "abrupt-31", "custom-33"])
    @pytest.mark.parametrize("modes,one_shot", [
        (("online",), True), (("fixed", "oracle"), True),
        (("online", "oracle", "fixed"), False), (("oracle", "fixed", "online"), True)])
    def test_matches_per_cell_loop(self, seq, modes, one_shot):
        from driftsched import planner_run_many

        cfgs = [PLANNER_SCHEDULES[m] for m in modes]
        # the schedules as a list or as a one-shot iterator
        traces = planner_run_many(planner_case(seq), iter(cfgs) if one_shot else cfgs,
                                  eps=1e-6)
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
            assert np.array_equal(tr.oco_gaps, gaps)
            assert np.array_equal(tr.state_alphas, alphas)

    def test_one_solve_chain_for_every_schedule(self, monkeypatch):
        from driftsched import planner_run_many, softmdp

        passes = []
        real = softmdp._soft_pass
        monkeypatch.setattr(softmdp, "_soft_pass", lambda *a: passes.append(1) or real(*a))
        spec = drifting_random_spec("periodic", horizon=20)
        planner_run(spec, PLANNER_SCHEDULES["online"])
        one = len(passes)
        passes.clear()
        planner_run_many(spec, list(PLANNER_SCHEDULES.values()))
        assert one > 20 and len(passes) == one

    def test_newton_steps_per_solve(self, monkeypatch):
        # value iteration took about 170 sweeps a round on this chain
        calls = count_solves(monkeypatch)
        planner_run(drifting_random_spec("periodic", horizon=20), PLANNER_SCHEDULES["online"])
        assert calls["solves"] == 20
        # a step is one soft pass; a solve's first step is the last solve's pass of Q*
        steps = calls["in_solves"] + calls["of_solved"] - 1
        assert steps <= 10 * calls["solves"]

    @pytest.mark.parametrize("pattern,solves", [("periodic", 12), ("abrupt", 2)])
    def test_table_terms_once_per_solve(self, monkeypatch, pattern, solves):
        from driftsched import planner_run_many

        calls = count_solves(monkeypatch)
        traces = planner_run_many(drifting_random_spec(pattern, horizon=12),
                                  list(PLANNER_SCHEDULES.values()))
        assert len(traces) == 3
        # pi*_t and V*_t (J*_t is rho_t . V*_t) are one pass of Q*_t; a reused
        # solve reuses them
        assert (calls["solves"], calls["of_solved"]) == (solves, solves)

    def test_no_per_round_evaluation(self, monkeypatch):
        from driftsched import agent, planner_run_many, softmdp

        def per_round(*args, **kwargs):
            raise AssertionError("a carrier called soft_return")

        monkeypatch.setattr(softmdp, "soft_return", per_round)
        monkeypatch.setattr(agent, "soft_return", per_round, raising=False)
        evaluated = []
        real = agent._soft_returns
        monkeypatch.setattr(agent, "_soft_returns",
                            lambda *a: evaluated.append(a[-1].shape[0]) or real(*a))
        traces = planner_run_many(drifting_random_spec("abrupt", horizon=33),
                                  list(PLANNER_SCHEDULES.values()))
        assert len(traces) == 3 and np.isfinite(traces[0].column("eval_return")).all()
        assert evaluated == [agent.EVAL_CHUNK] * 3 + [3]  # 99 (schedule, round) entries
        evaluated.clear()
        traces = td_train_many([steady_goal_spec(33)] * 2, [ONLINE_TD, FIXED_TD], [0, 1],
                               4, 1, 6)
        assert np.isfinite(traces[1].column("eval_return")).all()
        assert evaluated == [agent.EVAL_CHUNK] * 2 + [2]  # 66 (step, learner) entries

    def test_open_loop_one_stacked_step_per_round(self, monkeypatch):
        # the schedule is fixed before round 1 and every round steps all
        # schedules' policies at once
        from driftsched import agent, planner_run_many

        def per_round(*args, **kwargs):
            raise AssertionError("planner_run_many called next_lambda")

        steps = []
        real = agent._mirror_step
        monkeypatch.setattr(agent, "next_lambda", per_round)
        monkeypatch.setattr(agent, "_mirror_step",
                            lambda logp, *a: steps.append(logp.shape) or real(logp, *a))
        traces = planner_run_many(drifting_random_spec("periodic", horizon=12),
                                  list(PLANNER_SCHEDULES.values()))
        assert len(traces) == 3
        assert steps == [(3, 30, 4)] * 12

    def test_planner_run_is_one_schedule(self):
        from driftsched import planner_run_many

        spec = drifting_random_spec("abrupt", horizon=15)
        cfg = PLANNER_SCHEDULES["oracle"]
        alone = planner_run(spec, cfg, eps=0.05)
        shared = planner_run_many(spec, [PLANNER_SCHEDULES["online"], cfg], eps=0.05)[1]
        for name in alone.columns:
            assert np.array_equal(alone.column(name), shared.column(name)), name
        assert alone.meta == shared.meta
        assert np.array_equal(alone.oco_gaps, shared.oco_gaps)

    def test_boundary_checked_before_round_one(self, monkeypatch):
        from driftsched import InvalidEpsilon, LengthMismatch, agent, planner_run_many

        def no_rounds(*args, **kwargs):
            raise AssertionError("ran a round")

        monkeypatch.setattr(agent, "_mirror_step", no_rounds)
        monkeypatch.setattr(agent, "_solved_chain", no_rounds)
        spec = drifting_random_spec("abrupt", horizon=5)
        with pytest.raises(LengthMismatch):
            planner_run_many(spec, [])
        with pytest.raises(LengthMismatch):
            planner_run_many(spec, iter(()))
        with pytest.raises(InvalidEpsilon):
            planner_run_many(spec, list(PLANNER_SCHEDULES.values()), eps=0.3)


@dataclass
class TdLearnerState:
    """Tabular soft-TD learner; owns its Q table and sampling stream."""

    q: np.ndarray
    rng: np.random.Generator
    learn_rate: float
    proxy: ProxyState
    current_state: int


def reference_td_step(state, mdp_t, alpha_t):
    """One sampled soft-TD step as one learner's rng.choice draws and row functions."""
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

    def test_predrawn_uniforms_match_choice(self):
        p = np.array([0.2, 0.5, 0.3])
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        want = [rng_a.choice(3, p=p) for _ in range(1000)]
        got = [_choice(p.tolist(), u) for u in rng_b.random(1000).tolist()]
        assert got == want
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

    def test_mdp_back_after_a_gap(self):
        # a's rows are cached for its first 30 steps, dropped for b's and cached again
        a = random_mdp(6, 3, rng=np.random.default_rng(1))
        b = random_mdp(6, 3, gamma=0.8, rng=np.random.default_rng(2))
        runs = [([a] * 30 + [b] * 30 + [a] * 30, cfg, seed)
                for cfg, seed in ((ONLINE_TD, 0), (FIXED_TD, 1))]
        knobs = (6, 15, 11, 0.2)
        assert_matches_reference(td_train_many(*map(list, zip(*runs)), *knobs),
                                 runs, knobs)

    def test_equal_but_distinct_copies(self):
        # the cache follows the object: an equal copy at every step is read directly
        a = random_mdp(6, 3, rng=np.random.default_rng(3))
        copies = [replace(a) for _ in range(60)]
        lists = [copies, [a] * 20 + copies[:20] + [a] * 20, [a, replace(a), replace(a)] * 20]
        runs = [(mdps, cfg, seed) for mdps, cfg, seed in
                zip(lists, (ONLINE_TD, FIXED_TD, ONLINE_TD), (4, 5, 6))]
        knobs = (5, 12, 8, 0.3)
        assert_matches_reference(td_train_many(*map(list, zip(*runs)), *knobs),
                                 runs, knobs)

    def test_shared_spec_beside_an_alternating_list(self):
        spec = abrupt_goal_spec(200, (90,), seed=1)
        a, b = goal_chain_mdp(goal_reward=0.6), goal_chain_mdp(goal=0, goal_reward=1.0)
        runs = [(spec, ONLINE_TD, 3), ([a, b] * 100, FIXED_TD, 4), (spec, FIXED_TD, 5)]
        knobs = (10, 40, 25, 0.25)
        assert_matches_reference(td_train_many(*map(list, zip(*runs)), *knobs),
                                 runs, knobs)

    def test_row_cache_fills_each_row_once_per_shared_mdp(self, monkeypatch):
        # learners on one spec share its cache; an MDP that is new at every
        # step, or alternates, is never cached
        from driftsched import agent

        filled, stacks = [], {}
        fill = agent._cached_row

        def counted(m, i, s, a):
            filled.append((id(m), i, s, a))
            stacks[id(m), i] = m
            return fill(m, i, s, a)

        monkeypatch.setattr(agent, "_cached_row", counted)
        spec = steady_goal_spec(400)
        a, b = goal_chain_mdp(goal_reward=0.6), goal_chain_mdp(goal=0, goal_reward=1.0)
        td_train_many([spec, [a, b] * 200, spec, [replace(a) for _ in range(400)]],
                      [ONLINE_TD, FIXED_TD] * 2, [0, 1, 2, 3], 10, 50, 25)
        assert len(filled) == len(set(filled)) <= 5 * 3
        assert len({(m, i) for m, i, _, _ in filled}) == 1
        # the one cached entry is the steady spec's: its plan has one entry, the lists 2 and 400
        assert [len(m.rewards) for m in stacks.values()] == [1]

    @pytest.mark.parametrize("horizon", [1, 31, 33])
    def test_horizons_off_the_eval_chunk(self, horizon):
        # eval_every 1 stores 3 policies a step: chunks fill mid-run and a
        # remainder is left after the last step
        a = random_mdp(5, 3, rng=np.random.default_rng(1))
        b = random_mdp(5, 3, gamma=0.8, mu=0.3, rng=np.random.default_rng(2))
        runs = [(steady_goal_spec(horizon), ONLINE_TD, 0),
                (([a, b] * horizon)[:horizon], FIXED_TD, 1),
                (([b, b, a] * horizon)[:horizon], ONLINE_TD, 2)]
        knobs = (4, 1, 6, 0.2)
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
        ({"cfgs": [FIXED_TD, ScheduleConfig(mode="oracle")]}, "true drift"),
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

    @pytest.mark.parametrize("n_actions", [8, 9, 16])
    def test_wide_action_rows(self, n_actions):
        # rows of 8 or more actions take numpy's pairwise sums in the step
        base = random_mdp(6, n_actions, gamma=0.9, mu=0.2,
                          rng=np.random.default_rng([n_actions, 3]))
        drift = DriftSpec(change_times=(70,), magnitude=0.5, period=40, amplitude=0.4,
                          transition_drift=True)
        runs = [(SoftMdpSequence(base=base, pattern=pattern, horizon=160, drift=drift,
                                 seed=i), cfg, 20 + i)
                for i, (pattern, cfg) in enumerate([("steady", ONLINE_TD), ("abrupt", FIXED_TD),
                                                    ("periodic", ONLINE_TD)])]
        knobs = (10, 40, 17, 0.3)
        assert_matches_reference(td_train_many(*map(list, zip(*runs)), *knobs),
                                 runs, knobs)

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


class TestTdMemory:
    """A run keeps its tracemalloc peak. With its own table at every step, the
    step reads that table a row at a time and neither stacks the tables nor
    turns them into lists (as lists the rewards would add about 5 MB here,
    the transitions about 35 MB). On a steady task the row cache holds at most
    one table's rows a sequence, shared by the learners on it."""

    # peaks measured with numpy 2.4.6 and Python 3.11.7: 25,864,790 B when
    # the step ran on one (B, S, A) array with stacked reward and cdf tables,
    # 9,572,841 B with the step on lists reading its MDP's rows
    PEAK_B = 9_572_841
    # the steady task: 1,225,420 B reading each row from the table, 1,529,114 B
    # with a row cache per sequence (its two 60 x 4 x 60 tables hold 230,400 B)
    PEAK_CACHED_B = 1_529_114

    def test_peak_with_a_table_per_step(self):
        base = random_mdp(12, 4, gamma=0.9, mu=0.2, rng=np.random.default_rng(3))
        spec = SoftMdpSequence(base=base, pattern="periodic", horizon=2000, seed=0,
                               drift=DriftSpec(period=2000, amplitude=0.4,
                                               transition_drift=True))
        tracemalloc.start()
        try:
            td_train_many([spec] * 4, [ONLINE_TD, FIXED_TD] * 2, [0, 1, 2, 3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * self.PEAK_B

    def test_peak_with_row_caches(self):
        # four learners on two specs: a cache per learner would break the bound
        specs = [SoftMdpSequence(base=random_mdp(60, 4, gamma=0.9, mu=0.2,
                                                 rng=np.random.default_rng([seed, 3])),
                                 pattern="steady", horizon=2000, seed=seed) for seed in (0, 1)]
        tracemalloc.start()
        try:
            td_train_many([specs[0], specs[0], specs[1], specs[1]], [ONLINE_TD, FIXED_TD] * 2,
                          [0, 1, 2, 3], eval_every=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * self.PEAK_CACHED_B
