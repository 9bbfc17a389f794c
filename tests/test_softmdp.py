import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftsched import (
    DriftSpec,
    InvalidSpec,
    NoConvergence,
    NonPositiveTemperature,
    ShapeMismatch,
    SoftMdpSequence,
    TabularMdp,
    generate_sequence,
    goal_chain_mdp,
    log_sum_exp,
    occupancy,
    random_mdp,
    soft_bellman_apply,
    soft_policy,
    soft_return,
    soft_values,
    softmax,
    solve_soft_q,
    variation_budget,
)
from driftsched.softmdp import _evaluate, surrogate_gap


def single_state_mdp(r=1.0, gamma=0.5, mu=1.0, n_actions=1):
    rewards = np.full((1, n_actions), r)
    transitions = np.ones((1, n_actions, 1))
    return TabularMdp(rewards, transitions, gamma, np.array([1.0]), mu, r_max=abs(r) or 1.0)


class TestTabularMdp:
    def test_row_sum_validated(self):
        p = np.ones((2, 2, 2)) * 0.4
        with pytest.raises(ValueError, match="sum"):
            TabularMdp(np.zeros((2, 2)), p, 0.9, np.array([0.5, 0.5]), 0.2)

    def test_reward_range_validated(self):
        m = random_mdp(2, 2)
        with pytest.raises(ValueError, match="r_max"):
            TabularMdp(m.rewards + 5.0, m.transitions, 0.9, m.rho, 0.2, r_max=1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            TabularMdp(np.zeros((2, 2)), np.ones((2, 3, 2)) / 2, 0.9,
                       np.array([0.5, 0.5]), 0.2)

    def test_nan_reward_rejected(self):
        m = goal_chain_mdp()
        r = m.rewards.copy()
        r[1, 2] = np.nan
        with pytest.raises(ValueError, match="r_max"):
            replace(m, rewards=r)

    def test_nan_transition_rejected(self):
        m = goal_chain_mdp()
        p = m.transitions.copy()
        p[0, 1, 3] = np.nan
        with pytest.raises(ValueError, match="transition"):
            replace(m, transitions=p)

    def test_nan_mu_rejected(self):
        with pytest.raises(NonPositiveTemperature):
            replace(goal_chain_mdp(), mu=math.nan)

    @pytest.mark.parametrize("r_max", [math.inf, -math.inf, math.nan])
    def test_r_max_must_be_finite(self, r_max):
        # solve_soft_q's step cap takes a log of the Q bound, which needs a finite r_max
        with pytest.raises(ValueError, match="r_max must be finite"):
            replace(goal_chain_mdp(), r_max=r_max)

    @pytest.mark.parametrize("rho", [
        [2.0, -0.5, -0.5], [0.5, 0.5, 0.5], [0.5, 0.5, -1e-9],
        [math.nan, 0.5, 0.5], [1.0, 0.0, math.nan], [math.inf, 0.0, 0.0],
    ])
    def test_rho_must_be_a_distribution(self, rho):
        from driftsched.softmdp import _validate_mdp

        m = random_mdp(3, 2)
        with pytest.raises(ValueError, match="rho"):
            replace(m, rho=np.array(rho))
        stack = np.stack([m.rho, np.array(rho)])  # one bad entry fails the stack
        with pytest.raises(ValueError, match="rho"):
            _validate_mdp(np.stack([m.rewards] * 2), np.stack([m.transitions] * 2),
                          m.gamma, stack, m.mu, 1.0, stacked=True)

    def test_rho_within_rounding_accepted(self):
        m = random_mdp(3, 2)
        rho = np.array([0.5 + 1e-12, 0.5, -1e-12])
        assert np.array_equal(replace(m, rho=rho).rho, rho)

    @pytest.mark.parametrize("field,bad", [
        ("rewards", lambda r: r + 2.0), ("transitions", lambda p: p * 0.9),
        ("transitions", lambda p: np.where(p == p.max(), -0.5, p)), ("gamma", lambda g: 1.0),
        ("gamma", lambda g: math.nan), ("mu", lambda m: 0.0), ("mu", lambda m: math.nan),
    ])
    def test_stack_rules_are_the_table_rules(self, field, bad):
        # one bad entry of a stack fails as that entry fails alone
        from driftsched.softmdp import _validate_mdp

        good = [random_mdp(3, 2, gamma=0.8, mu=0.3, rng=np.random.default_rng(i))
                for i in range(3)]
        fields = {"rewards": [m.rewards for m in good],
                  "transitions": [m.transitions for m in good],
                  "gamma": [0.8] * 3, "mu": [0.3] * 3}
        fields[field][1] = bad(fields[field][1])
        with pytest.raises(Exception) as alone:
            TabularMdp(fields["rewards"][1], fields["transitions"][1], fields["gamma"][1],
                       good[1].rho, fields["mu"][1])
        arrays = {k: np.stack(v) for k, v in fields.items()}
        with pytest.raises(type(alone.value)) as stacked:
            _validate_mdp(arrays["rewards"], arrays["transitions"], arrays["gamma"],
                          good[0].rho, arrays["mu"], 1.0, stacked=True)
        assert str(stacked.value) == str(alone.value)


class TestSoftBellman:
    def test_single_state_step(self):
        m = single_state_mdp(r=1.0, gamma=0.5, mu=1.0)
        tq = soft_bellman_apply(m, np.zeros((1, 1)))
        assert tq[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_zero_reward_constant(self):
        for n_actions in (2, 4):
            m = random_mdp(3, n_actions, gamma=0.7, mu=0.3)
            m = TabularMdp(np.zeros((3, n_actions)), m.transitions, 0.7, m.rho, 0.3)
            tq = soft_bellman_apply(m, np.zeros((3, n_actions)))
            assert np.allclose(tq, 0.7 * 0.3 * math.log(n_actions), atol=1e-13)

    def test_matches_extended_precision(self):
        rng = np.random.default_rng(42)
        m = random_mdp(3, 2, gamma=0.85, mu=0.4, rng=rng)
        q = rng.uniform(-2, 2, (3, 2))
        got = soft_bellman_apply(m, q)
        mp.mp.dps = 50
        for s in range(3):
            for a in range(2):
                v_next = []
                for s2 in range(3):
                    terms = [mp.e ** (mp.mpf(q[s2, a2]) / mp.mpf(0.4)) for a2 in range(2)]
                    v_next.append(mp.mpf(0.4) * mp.log(mp.fsum(terms)))
                want = mp.mpf(m.rewards[s, a]) + mp.mpf(0.85) * mp.fsum(
                    mp.mpf(m.transitions[s, a, s2]) * v_next[s2] for s2 in range(3)
                )
                assert got[s, a] == pytest.approx(float(want), abs=1e-12)

    def test_per_entry_gamma_and_mu(self):
        # a stack with one gamma and mu per table backs up each table as it alone would
        from driftsched.softmdp import _MdpStack

        rng = np.random.default_rng(11)
        mdps = [random_mdp(4, 3, gamma=float(rng.uniform(0.5, 0.99)),
                           mu=float(rng.uniform(0.05, 1.0)), rng=rng) for _ in range(6)]
        q = rng.uniform(-5, 5, (6, 4, 3))
        gamma, mu = np.array([m.gamma for m in mdps]), np.array([m.mu for m in mdps])
        stack = _MdpStack(np.stack([m.rewards for m in mdps]),
                          np.stack([m.transitions for m in mdps]), gamma, mu)
        tq = soft_bellman_apply(stack, q)
        v = soft_values(q, mu)
        for i, m in enumerate(mdps):
            assert tq[i].tobytes() == soft_bellman_apply(m, q[i]).tobytes()
            assert v[i].tobytes() == soft_values(q[i], m.mu).tobytes()
        with pytest.raises(NonPositiveTemperature):
            soft_values(q, np.r_[mu[:5], 0.0])

    def test_contraction(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = random_mdp(4, 3, gamma=float(rng.uniform(0.3, 0.95)), rng=rng)
            q1 = rng.uniform(-5, 5, (4, 3))
            q2 = rng.uniform(-5, 5, (4, 3))
            lhs = np.abs(soft_bellman_apply(m, q1) - soft_bellman_apply(m, q2)).max()
            assert lhs <= m.gamma * np.abs(q1 - q2).max() + 1e-12


class TestSolveSoftQ:
    def test_scalar_fixed_point(self):
        m = single_state_mdp(r=1.0, gamma=0.5, mu=1.0)
        q = solve_soft_q(m, tol=1e-10)
        assert q[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_zero_reward_ansatz(self):
        # constant tables solve c = gamma*c + gamma*mu*log(A)
        n_actions, gamma, mu = 3, 0.8, 0.25
        m = random_mdp(4, n_actions, gamma=gamma, mu=mu)
        m = TabularMdp(np.zeros((4, n_actions)), m.transitions, gamma, m.rho, mu)
        q = solve_soft_q(m, tol=1e-10)
        want = gamma * mu * math.log(n_actions) / (1 - gamma)
        assert np.allclose(q, want, atol=1e-9)

    def test_residual_and_norm_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = random_mdp(5, 3, gamma=0.9, mu=0.2, rng=rng)
            q = solve_soft_q(m, tol=1e-9)
            assert np.abs(soft_bellman_apply(m, q) - q).max() <= 1e-9
            assert np.abs(q).max() <= m.q_bound() + 1e-9
            assert np.abs(soft_values(q, m.mu)).max() <= m.v_bound() + 1e-9

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            solve_soft_q(single_state_mdp(), tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
    def test_tol_not_finite_and_positive_refused(self, tol):
        # NaN and inf used to reach math.ceil: a bare ValueError or OverflowError
        from driftsched import ScheduleConfig, planner_run_many

        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            solve_soft_q(single_state_mdp(), tol)
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            planner_run_many([single_state_mdp()] * 2, [ScheduleConfig()], tol=tol)

    def test_warm_start_steps_from_the_given_table(self, monkeypatch):
        from driftsched import softmdp

        m0, alt = (random_mdp(6, 3, gamma=0.9, mu=0.2, rng=np.random.default_rng(s))
                   for s in (1, 2))
        m1 = replace(m0, rewards=0.95 * m0.rewards + 0.05 * alt.rewards)  # a drift step
        q_init = solve_soft_q(m0, 1e-9)
        target, q, newton = 1e-9 * (1 - m1.gamma), q_init, 0
        while True:  # the soft policy-iteration chain from q_init
            tq = soft_bellman_apply(m1, q)
            if np.abs(tq - q).max() <= target:
                break
            q, _ = _evaluate(m1, soft_policy(q, m1.mu))
            newton += 1
        steps = []
        real = softmdp._soft_pass
        monkeypatch.setattr(softmdp, "_soft_pass",
                            lambda *a: steps.append(1) or real(*a))
        warm = solve_soft_q(m1, 1e-9, q_init=q_init)
        assert np.array_equal(warm, tq)  # T of the last iterate
        n_warm = len(steps)
        assert n_warm == newton + 1  # one soft pass per step, plus the final test
        steps.clear()
        cold = solve_soft_q(m1, 1e-9)
        assert 0 < n_warm < len(steps)
        assert np.abs(warm - cold).max() <= 2e-9 / (1 - m1.gamma)
        assert np.array_equal(solve_soft_q(m1, 1e-9, q_init=np.zeros((6, 3))), cold)

    def test_far_warm_start_converges(self):
        # the sweep bound grows with ||q_init||: a table far off the fixed
        # point still converges at gamma = 0.99
        m = random_mdp(5, 3, gamma=0.99, mu=0.2, rng=np.random.default_rng(4))
        cold = solve_soft_q(m, 1e-9)
        for far in (1e6, -1e6):
            warm = solve_soft_q(m, 1e-9, q_init=np.full((5, 3), far))
            assert np.abs(warm - cold).max() <= 2e-9 / (1 - m.gamma)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_warm_start_rejected(self, bad):
        q_init = np.zeros((1, 1))
        q_init[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            solve_soft_q(single_state_mdp(), q_init=q_init)


    def test_step_cap_raises_no_convergence(self, monkeypatch):
        from driftsched import softmdp

        m = random_mdp(4, 3, gamma=0.9, mu=0.2, rng=np.random.default_rng(5))
        steps = []
        real = softmdp._soft_pass
        monkeypatch.setattr(softmdp, "_soft_pass",
                            lambda *a: steps.append(1) or real(*a))
        # a step that never moves: Q stays at 0, which is no fixed point
        monkeypatch.setattr(softmdp, "_evaluate",
                            lambda mdp, pi, eye: (np.zeros_like(mdp.rewards), None))
        with pytest.raises(NoConvergence):
            solve_soft_q(m, 1e-9)
        cap = math.ceil(math.log(1e-9 * 0.1 / (2 * m.q_bound() + 1e-12)) / math.log(0.9)) + 16
        assert len(steps) == cap



def drifting_chains(n_chains, steps=5, seed=6):
    """(C, L, S, A) rewards and (C, L, S, A, S) transitions: C drifting
    sequences of L random 5x3 MDPs at gamma 0.9, mu 0.2."""
    rng = np.random.default_rng(seed)
    drift = DriftSpec(change_times=(2, 3), magnitude=0.5, period=2, amplitude=0.4,
                      transition_drift=True)
    seqs = [generate_sequence(SoftMdpSequence(
        base=random_mdp(5, 3, gamma=0.9, mu=0.2, rng=rng), pattern="mixed",
        horizon=steps, drift=drift, seed=c)) for c in range(n_chains)]
    return tuple(np.array([[getattr(m, f) for m in seq] for seq in seqs])
                 for f in ("rewards", "transitions"))


def count_passes(monkeypatch):
    """The shapes of the tables that get a soft pass, one per Newton step."""
    from driftsched import softmdp

    shapes, real = [], softmdp._soft_pass
    monkeypatch.setattr(softmdp, "_soft_pass",
                        lambda q, mu: shapes.append(q.shape) or real(q, mu))
    return shapes


class TestChainedSolve:
    """A (C, L, S, A) stack is C chains, each with its own stopping test."""

    def test_each_chain_has_its_own_bits(self, monkeypatch):
        from driftsched.softmdp import _MdpStack

        rewards, transitions = drifting_chains(4)
        # warm, cold and far starts: the chains need different step counts
        solved = solve_soft_q(_MdpStack(rewards[0], transitions[0], 0.9, 0.2), 1e-9)
        q_init = np.stack([solved, np.zeros_like(solved), np.full_like(solved, 300.0),
                           np.full_like(solved, -40.0)])
        shapes = count_passes(monkeypatch)
        alone, steps = [], []
        for c in range(4):
            alone.append(solve_soft_q(_MdpStack(rewards[c], transitions[c], 0.9, 0.2),
                                      1e-9, q_init=q_init[c]))
            steps.append(len(shapes))
            shapes.clear()
        assert len(set(steps)) > 1
        chained = solve_soft_q(_MdpStack(rewards, transitions, 0.9, 0.2), 1e-9, q_init=q_init)
        for c in range(4):
            assert chained[c].tobytes() == alone[c].tobytes()
        # a chain leaves the stack once it stops; the stack runs until the last one does
        assert [shape[0] for shape in shapes] == [
            sum(n > i for n in steps) for i in range(max(steps))]

    def test_one_stuck_chain_raises(self, monkeypatch):
        from driftsched import softmdp
        from driftsched.softmdp import _MdpStack

        rewards, transitions = drifting_chains(3)
        stack = _MdpStack(rewards, transitions, 0.9, 0.2)
        solve_soft_q(stack, 1e-9)
        real = softmdp._evaluate

        def stuck(mdp, pi, eye):  # the last chain never moves off Q = 0, no fixed point
            q, v = real(mdp, pi, eye)
            q[-1] = 0.0
            return q, v

        monkeypatch.setattr(softmdp, "_evaluate", stuck)
        with pytest.raises(NoConvergence):
            solve_soft_q(stack, 1e-9)

    def test_three_dimensional_stack_shares_one_test(self, monkeypatch):
        from driftsched.softmdp import _MdpStack

        rewards, transitions = (x[0] for x in drifting_chains(1))
        warm = solve_soft_q(_MdpStack(rewards[:1], transitions[:1], 0.9, 0.2), 1e-9)
        q_init = np.concatenate([warm, np.zeros_like(rewards[1:])])
        shapes = count_passes(monkeypatch)
        steps = []
        for i in range(len(rewards)):
            solve_soft_q(_MdpStack(rewards[i:i + 1], transitions[i:i + 1], 0.9, 0.2), 1e-9,
                         q_init=q_init[i:i + 1])
            steps.append(len(shapes))
            shapes.clear()
        assert len(set(steps)) > 1
        shared = solve_soft_q(_MdpStack(rewards, transitions, 0.9, 0.2), 1e-9, q_init=q_init)
        assert len(shapes) == max(steps) and len(set(shapes)) == 1
        # the same as a stack of one chain
        one_chain = solve_soft_q(_MdpStack(rewards[None], transitions[None], 0.9, 0.2), 1e-9,
                                 q_init=q_init[None])
        assert shared.tobytes() == one_chain[0].tobytes()


def reference_chain(mdps, tol):
    """(M_t, Q*_t, pi*_t, V*_t) along mdps: per distinct step solve_soft_q from
    the last Q*, then soft_policy and soft_values; a repeat reuses the step."""
    rows = []
    for m in mdps:
        if rows and (m is rows[-1][0] or (
                m.gamma == rows[-1][0].gamma and m.mu == rows[-1][0].mu
                and np.array_equal(m.rewards, rows[-1][0].rewards)
                and np.array_equal(m.transitions, rows[-1][0].transitions))):
            rows.append((m,) + rows[-1][1:])
            continue
        q = solve_soft_q(m, tol, q_init=rows[-1][1] if rows else None)
        rows.append((m, q, soft_policy(q, m.mu), soft_values(q, m.mu)))
    return rows


def user_list_with_a_mu_change():
    """Five random 5x3 MDPs, each a drift step from the last, at mu 0.2 and from the
    fourth on at mu 0.5, with an equal but distinct copy after the second and after
    the fifth: seven steps."""
    rng = np.random.default_rng(8)
    base, alt = random_mdp(5, 3, rng=rng), random_mdp(5, 3, rng=rng)
    steps = [replace(base, rewards=(1 - w) * base.rewards + w * alt.rewards,
                     transitions=(1 - w) * base.transitions + w * alt.transitions,
                     mu=0.2 if i < 3 else 0.5)
             for i, w in enumerate((0.0, 0.1, 0.3, 0.35, 0.6))]
    copy = [replace(m, rewards=m.rewards.copy(), transitions=m.transitions.copy())
            for m in steps]
    return steps[:2] + [copy[1]] + steps[2:] + [copy[4]]


class TestSolvedChain:
    """_solved_chain along a plan against one solve_soft_q, soft_policy and soft_values
    per distinct step."""

    # every case starts cold; "one_step" is nothing but the cold start
    @pytest.mark.parametrize("case", ["spec", "mu_change", "one_step"])
    def test_matches_the_reference_path(self, case):
        from driftsched.softmdp import _plan, _solved_chain

        if case == "spec":
            seq = SoftMdpSequence(
                base=random_mdp(6, 3, rng=np.random.default_rng(3)), pattern="mixed",
                horizon=14, seed=4, drift=DriftSpec(change_times=(5, 9), magnitude=0.5,
                                                    period=4, amplitude=0.4,
                                                    transition_drift=True))
            mdps = generate_sequence(seq)
        else:
            seq = mdps = user_list_with_a_mu_change()[:1 if case == "one_step" else None]
        stack, path = _plan(seq)
        got, want = list(_solved_chain(stack, path, 1e-9)), reference_chain(mdps, 1e-9)
        assert len(got) == len(want) == len(mdps)
        for t, (step, ref) in enumerate(zip(got, want)):
            # step t's entry of the plan is M_t
            for name in ("rewards", "transitions", "gamma", "mu"):
                assert np.array_equal(getattr(stack, name)[path[t]], getattr(mdps[t], name))
            for ours, theirs in zip(step, ref[1:]):
                assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
            # a reused solve yields the same arrays again
            reused = t > 0 and ref[1] is want[t - 1][1]
            assert all((a is b) == reused for a, b in zip(step, got[t - 1] if t else ()))
        if case == "spec":
            assert sum(ref[1] is not want[t - 1][1] for t, ref in enumerate(want) if t) > 5

    def test_equal_copies_reuse_the_solve(self, monkeypatch):
        from driftsched import softmdp

        mdps = user_list_with_a_mu_change()
        solves = []
        real = softmdp._solve
        monkeypatch.setattr(softmdp, "_solve", lambda *a: solves.append(a[0]) or real(*a))
        got = list(softmdp._solved_chain(*softmdp._plan(mdps), 1e-9))

        def key(m):  # a solved entry or an MDP, by the numbers Q* depends on
            return m.rewards.tobytes(), m.transitions.tobytes(), float(m.gamma), float(m.mu)

        # the copies at steps 3 and 7 are equal to the step before, not the same object
        assert list(map(key, solves)) == [key(m) for i, m in enumerate(mdps) if i not in (2, 6)]
        assert got[2][0] is got[1][0] and got[6][2] is got[5][2]


def value_iteration(m, tol, q):
    """Plain soft value iteration with its own max-shifted log-sum-exp."""
    while True:
        z = q / m.mu
        top = z.max(axis=1)
        v = m.mu * (top + np.log(np.exp(z - top[:, None]).sum(axis=1)))
        q_next = m.rewards + m.gamma * np.einsum("saz,z->sa", m.transitions, v)
        if np.abs(q_next - q).max() <= tol * (1 - m.gamma):
            return q_next
        q = q_next


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), gamma=st.floats(0.5, 0.99),
       mu=st.floats(0.01, 2.0), n_states=st.integers(1, 8), n_actions=st.integers(1, 5),
       warm=st.booleans())
def test_solve_soft_q_matches_value_iteration(seed, gamma, mu, n_states, n_actions, warm):
    # small mu gives softmax rows with exact zeros, which the entropy term skips
    rng = np.random.default_rng(seed)
    m = random_mdp(n_states, n_actions, gamma=gamma, mu=mu, rng=rng)
    q_init = rng.uniform(-m.q_bound(), m.q_bound(), (n_states, n_actions)) if warm else None
    tol = 1e-9
    q = solve_soft_q(m, tol, q_init=q_init)
    assert np.abs(soft_bellman_apply(m, q) - q).max() <= tol
    want = value_iteration(m, tol, np.zeros((n_states, n_actions)))
    assert np.abs(q - want).max() <= 2 * tol / (1 - gamma)


class TestSoftPolicy:
    def test_constant_row_uniform(self):
        pi = soft_policy(np.zeros((2, 4)), 0.5)
        assert np.allclose(pi, 0.25)

    def test_row_value(self):
        pi = soft_policy(np.array([[1.0, 0.0]]), 1.0)
        assert pi[0] == pytest.approx((0.73105857863000478, 0.26894142136999512), abs=1e-12)

    def test_high_temperature_limit(self):
        rng = np.random.default_rng(0)
        pi = soft_policy(rng.uniform(-1, 1, (3, 4)), 1e6)
        assert np.abs(pi - 0.25).max() < 1e-5


class TestPolicyEval:
    def test_deterministic_scalar(self):
        m = single_state_mdp(r=1.0, gamma=0.5, mu=1.0)
        q, v = _evaluate(m, np.ones((1, 1)))
        assert q[0, 0] == pytest.approx(2.0, abs=1e-9)
        assert v[0] == pytest.approx(2.0, abs=1e-9)

    def test_uniform_zero_reward(self):
        n_actions, gamma, mu = 4, 0.6, 0.5
        m = random_mdp(3, n_actions, gamma=gamma, mu=mu)
        m = TabularMdp(np.zeros((3, n_actions)), m.transitions, gamma, m.rho, mu)
        _, v = _evaluate(m, np.full((3, n_actions), 0.25))
        assert np.allclose(v, mu * math.log(n_actions) / (1 - gamma), atol=1e-9)

    def test_soft_optimality_consistency(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = random_mdp(4, 3, gamma=0.9, mu=0.2, rng=rng)
            tol = 1e-10
            q_star = solve_soft_q(m, tol)
            _, v = _evaluate(m, soft_policy(q_star, m.mu))
            assert np.abs(v - soft_values(q_star, m.mu)).max() <= 2 * tol * 10


    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_solve(self, seed):
        # the (S A) x (S A) system Q = r + gamma P Pi (Q - mu log pi)
        rng = np.random.default_rng(seed)
        n_states, n_actions = 5, 3
        m = random_mdp(n_states, n_actions, gamma=float(rng.uniform(0.5, 0.99)),
                       mu=float(rng.uniform(0.01, 2.0)), rng=rng)
        pi = rng.dirichlet(np.ones(n_actions), size=n_states)
        pi[0] = [1.0, 0.0, 0.0]  # a deterministic row: 0 log 0 = 0
        log_pi = np.log(np.where(pi > 0, pi, 1.0))
        follow = np.einsum("saz,zb->sazb", m.transitions, pi).reshape(
            n_states * n_actions, n_states * n_actions)
        bonus = -m.mu * (pi * log_pi).sum(axis=1)
        rhs = (m.rewards + m.gamma * m.transitions @ bonus).ravel()
        q_want = np.linalg.solve(np.eye(n_states * n_actions) - m.gamma * follow, rhs)
        q_want = q_want.reshape(n_states, n_actions)
        v_want = (pi * (q_want - m.mu * log_pi)).sum(axis=1)
        q, v = _evaluate(m, pi)
        scale = m.v_bound()
        assert np.abs(q - q_want).max() <= 1e-12 * scale
        assert np.abs(v - v_want).max() <= 1e-12 * scale

    def test_no_backup_sweeps(self, monkeypatch):
        from driftsched import softmdp

        def no_sweeps(*args):
            raise AssertionError("_evaluate applied the Bellman backup")

        monkeypatch.setattr(softmdp, "soft_bellman_apply", no_sweeps)
        m = random_mdp(6, 3, rng=np.random.default_rng(2))
        _evaluate(m, np.full((6, 3), 1 / 3))


class TestOccupancy:
    def test_single_state(self):
        d = occupancy(single_state_mdp(), np.ones((1, 1)))
        assert d == pytest.approx([1.0])

    def test_absorbing_geometric(self):
        # start in state 1, deterministically move to absorbing state 2
        rewards = np.zeros((2, 1))
        transitions = np.zeros((2, 1, 2))
        transitions[0, 0, 1] = 1.0
        transitions[1, 0, 1] = 1.0
        m = TabularMdp(rewards, transitions, 0.5, np.array([1.0, 0.0]), 0.2)
        d = occupancy(m, np.ones((2, 1)))
        assert d == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_normalization_bulk(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = random_mdp(6, 3, gamma=float(rng.uniform(0.3, 0.99)), rng=rng)
            pi = rng.dirichlet(np.ones(3), size=6)
            assert occupancy(m, pi).sum() == pytest.approx(1.0, abs=1e-10)


class TestSoftReturn:
    def test_scalar(self):
        assert soft_return(single_state_mdp(), np.ones((1, 1))) == pytest.approx(2.0)

    def test_pure_entropy(self):
        n_actions, gamma, mu = 3, 0.75, 0.4
        m = random_mdp(2, n_actions, gamma=gamma, mu=mu)
        m = TabularMdp(np.zeros((2, n_actions)), m.transitions, gamma, m.rho, mu)
        want = mu * math.log(n_actions) / (1 - gamma)
        assert soft_return(m, np.full((2, n_actions), 1 / 3)) == pytest.approx(want)

    def test_occupancy_form_equals_recursive_form(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            m = random_mdp(5, 3, gamma=0.9, mu=0.2, rng=rng)
            pi = rng.dirichlet(np.ones(3), size=5)
            _, v = _evaluate(m, pi)
            assert soft_return(m, pi) == pytest.approx(float(m.rho @ v), abs=1e-6)


def reference_soft_return(rewards, transitions, rho, gamma, mu, pi):
    """(d, J) of one policy: a 2-D einsum, a 1-D solve and a 1-D dot."""
    p_pi = np.einsum("sa,saz->sz", pi, transitions)
    d = np.linalg.solve(np.eye(len(rho)) - gamma * p_pi.T, (1.0 - gamma) * rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        neg_ent = np.where(pi > 0.0, pi * np.log(np.where(pi > 0.0, pi, 1.0)), 0.0)
    per_state = (pi * rewards).sum(axis=1) - mu * neg_ent.sum(axis=1)
    return d, float(d @ per_state) / (1.0 - gamma)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(1, 6),
       st.sampled_from([(1,), (2,), (5,), (1, 1), (2, 3), (3, 2)]),
       st.integers(0, 2**32 - 1), st.data())
@example(1, 1, (3,), 0, None)
@example(1, 4, (2, 2), 1, None)
@example(7, 1, (4,), 2, None)
def test_stacked_soft_returns_match_per_policy_bits(n_states, n_actions, stack, seed, data):
    from driftsched.softmdp import _MdpStack, _soft_returns

    n = math.prod(stack)
    if data is None:  # the explicit examples spread gamma and mu themselves
        gammas, mus = np.linspace(0.05, 0.99, n), np.linspace(0.01, 3.0, n)
    else:
        gammas = np.array(data.draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n)))
        mus = np.array(data.draw(st.lists(st.floats(1e-3, 5.0), min_size=n, max_size=n)))
    rng = np.random.default_rng(seed)
    rewards = rng.uniform(-1.0, 1.0, stack + (n_states, n_actions))
    transitions = rng.dirichlet(np.ones(n_states), size=stack + (n_states, n_actions))
    rho = rng.dirichlet(np.ones(n_states), size=stack)
    pi = rng.dirichlet(np.full(n_actions, 0.5), size=stack + (n_states,))
    pi[rng.random(pi.shape) < 0.2] = 0.0  # exact zeros: the 0 log 0 = 0 branch
    pi[pi.sum(axis=-1) == 0.0, 0] = 1.0
    pi /= pi.sum(axis=-1, keepdims=True)
    gamma, mu = gammas.reshape(stack), mus.reshape(stack)

    got = _soft_returns(_MdpStack(rewards, transitions, gamma, mu, rho=rho), pi)
    assert got.shape == stack
    for i in np.ndindex(stack):
        d, want = reference_soft_return(rewards[i], transitions[i], rho[i],
                                        float(gamma[i]), float(mu[i]), pi[i])
        assert got[i] == want, i
        mdp = TabularMdp(rewards[i], transitions[i], float(gamma[i]), rho[i], float(mu[i]))
        assert soft_return(mdp, pi[i]) == want, i  # the one-entry calls
        assert np.array_equal(occupancy(mdp, pi[i]), d), i


class TestGenerateSequence:
    def base_spec(self, pattern, horizon=20, **drift_kw):
        return SoftMdpSequence(
            base=random_mdp(4, 3, rng=np.random.default_rng(0)),
            pattern=pattern, horizon=horizon,
            drift=DriftSpec(**drift_kw), seed=5,
        )

    def test_steady_identical(self):
        seq = generate_sequence(self.base_spec("steady"))
        for m in seq[1:]:
            assert np.array_equal(m.rewards, seq[0].rewards)
            assert np.array_equal(m.transitions, seq[0].transitions)

    def test_abrupt_change_only_at_change_times(self):
        seq = generate_sequence(self.base_spec("abrupt", change_times=(7,)))
        dr, _, _ = variation_budget(seq)
        assert dr[6] > 0.0
        assert np.count_nonzero(dr) == 1

    def test_linear_telescopes(self):
        spec = self.base_spec("linear", horizon=30)
        seq = generate_sequence(spec)
        dr, _, _ = variation_budget(seq)
        total_span = np.abs(seq[-1].rewards - seq[0].rewards).max()
        assert dr.sum() == pytest.approx(total_span, abs=1e-10)

    def test_periodic_stays_in_range(self):
        spec = self.base_spec("periodic", period=8, amplitude=0.9)
        seq = generate_sequence(spec)
        for m in seq:
            assert np.abs(m.rewards).max() <= m.r_max + 1e-12

    def test_mixed_superposition_validates(self):
        with pytest.raises(InvalidSpec):
            generate_sequence(self.base_spec(
                "mixed", change_times=(5,), magnitude=0.8, period=6, amplitude=0.5))

    @pytest.mark.parametrize("drift_kw", [
        {"jitter": -0.5}, {"jitter": math.nan}, {"jitter": math.inf},
        {"change_times": (2.5,)}, {"change_times": (True,)}, {"period": 3.5},
        {"period": True}, {"period": -1}, {"magnitude": math.nan}, {"amplitude": 1.5},
    ])
    def test_drift_spec_refused_at_construction(self, drift_kw):
        with pytest.raises(InvalidSpec):
            DriftSpec(**drift_kw)

    def test_drift_spec_takes_numpy_ints(self):
        drift = DriftSpec(change_times=(np.int64(5), np.int32(9)), period=np.int64(4))
        seq = generate_sequence(SoftMdpSequence(
            base=random_mdp(4, 3, rng=np.random.default_rng(0)), pattern="mixed",
            horizon=12, drift=drift, seed=5))
        assert len(seq) == 12

    def test_change_time_beyond_horizon(self):
        with pytest.raises(InvalidSpec):
            generate_sequence(self.base_spec("abrupt", change_times=(25,)))

    def test_reward_alt_out_of_range(self):
        bad = np.full((4, 3), 2.0)
        with pytest.raises(InvalidSpec):
            generate_sequence(self.base_spec("abrupt", change_times=(5,), reward_alt=bad))

    def test_deterministic_in_seed(self):
        spec = self.base_spec("mixed", change_times=(5,), magnitude=0.4,
                              period=6, amplitude=0.3, transition_drift=True)
        a = generate_sequence(spec)
        b = generate_sequence(spec)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.rewards, mb.rewards)
            assert np.array_equal(ma.transitions, mb.transitions)

    def test_one_mdp_object_per_distinct_weight(self):
        assert len({id(m) for m in generate_sequence(self.base_spec("steady"))}) == 1
        seq = generate_sequence(self.base_spec("abrupt", change_times=(7,)))
        assert len(seq) == 20
        assert len({id(m) for m in seq}) == 2

    def test_each_step_is_the_mixture_at_its_weight(self):
        from driftsched.softmdp import _alternate_endpoints

        base = random_mdp(4, 3, rng=np.random.default_rng(0))
        r_alt = np.random.default_rng(9).uniform(-1.0, 1.0, size=(4, 3))
        spec = SoftMdpSequence(
            base=base, pattern="abrupt", horizon=20, seed=5,
            drift=DriftSpec(change_times=(7,), magnitude=0.7, transition_drift=True,
                            reward_alt=r_alt),
        )
        r_given, p_alt = _alternate_endpoints(spec)
        assert np.array_equal(r_given, r_alt)
        for t, m in enumerate(generate_sequence(spec), start=1):
            w = 0.7 if t >= 7 else 0.0
            assert np.array_equal(m.rewards, (1.0 - w) * base.rewards + w * r_alt)
            assert np.array_equal(m.transitions,
                                  (1.0 - w) * base.transitions + w * p_alt)

    def test_transition_drift_rows_stochastic(self):
        spec = self.base_spec("linear", horizon=15, transition_drift=True)
        for m in generate_sequence(spec):
            assert np.allclose(m.transitions.sum(axis=2), 1.0, atol=1e-10)


def reference_sequence(spec):
    """M_1..M_T as generate_sequence built them before plans: (1 - w) base + w alt,
    one dataclasses.replace per distinct weight, repeated at each step with that weight."""
    from driftsched.softmdp import _alternate_endpoints, _weight_path

    base, w = spec.base, _weight_path(spec)
    r_alt, p_alt = _alternate_endpoints(spec)
    by_weight = {}
    for wt in w:
        if wt not in by_weight:
            r_t, p_t = base.rewards, base.transitions
            if spec.drift.reward_drift:
                r_t = (1.0 - wt) * base.rewards + wt * r_alt
            if spec.drift.transition_drift:
                p_t = (1.0 - wt) * base.transitions + wt * p_alt
            by_weight[wt] = replace(base, rewards=r_t, transitions=p_t)
    return [by_weight[wt] for wt in w]


MDP_FIELDS = ("rewards", "transitions", "rho", "gamma", "mu", "r_max")


def assert_entry_is(stack, i, mdp):
    """Entry i of a plan's stack holds mdp's numbers, bit for bit."""
    for name in MDP_FIELDS:
        ours, theirs = np.asarray(getattr(stack, name)[i]), np.asarray(getattr(mdp, name))
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name


class TestPlan:
    """softmdp._plan: the one (stack, path) layout of a spec or an MDP list."""

    DRIFTS = {"reward": (True, False), "transition": (False, True),
              "both": (True, True), "neither": (False, False)}

    @pytest.mark.parametrize("pattern", ["steady", "abrupt", "linear", "periodic", "mixed"])
    @pytest.mark.parametrize("drift", list(DRIFTS))
    @pytest.mark.parametrize("given_alt", [False, True])
    def test_spec_entries_are_the_per_weight_mdps(self, pattern, drift, given_alt):
        from driftsched.softmdp import _plan

        rng = np.random.default_rng([3, 4])
        base = random_mdp(5, 3, gamma=0.85, mu=0.3, r_max=2.0, rng=rng)
        reward_drift, transition_drift = self.DRIFTS[drift]
        alt = {"reward_alt": rng.uniform(-2.0, 2.0, (5, 3)), "jitter": 0.3} if given_alt else {}
        spec = SoftMdpSequence(base=base, pattern=pattern, horizon=30, seed=9, drift=DriftSpec(
            change_times=(8, 19), magnitude=0.6, period=7, amplitude=0.4,
            reward_drift=reward_drift, transition_drift=transition_drift, **alt))
        stack, path = _plan(spec)
        want, seq = reference_sequence(spec), generate_sequence(spec)
        assert len(path) == len(want) == len(seq) == 30
        assert len(stack.rewards) == len({id(m) for m in want})  # an entry per distinct weight
        for t, m in enumerate(want):
            assert_entry_is(stack, path[t], m)
            assert_entry_is(stack, path[t], seq[t])
            # generate_sequence shares one object among the steps of one entry
            assert ([seq[u] is seq[t] for u in range(30)] == [path[u] == path[t] for u in range(30)]
                    == [want[u] is want[t] for u in range(30)])
        for part, drifts in (("rewards", reward_drift), ("transitions", transition_drift)):
            # a part that does not drift is the base's array, not a copy per entry
            assert np.shares_memory(getattr(stack, part), getattr(base, part)) == (not drifts)

    def test_list_entries_follow_object_identity(self):
        from driftsched import LengthMismatch
        from driftsched.softmdp import _plan

        a = random_mdp(4, 2, rng=np.random.default_rng(1))
        b = random_mdp(4, 2, gamma=0.8, mu=0.5, rng=np.random.default_rng(2))
        copy = replace(a)  # equal to a, another object
        mdps = [a, a, copy, b, b, a, copy]  # shared objects, an equal copy, a back after a gap
        stack, path = _plan(mdps)
        assert path == [0, 0, 1, 2, 2, 0, 1]
        for t, m in enumerate(mdps):
            assert_entry_is(stack, path[t], m)
        assert _plan(iter(mdps))[1] == path
        with pytest.raises(LengthMismatch):
            _plan([])
        with pytest.raises(ShapeMismatch):
            _plan([a, random_mdp(4, 3)])

    def test_carriers_build_no_tabular_mdp(self, monkeypatch):
        from driftsched import ScheduleConfig, planner_run_many, td_train_many

        spec = SoftMdpSequence(base=random_mdp(5, 3, rng=np.random.default_rng(5)),
                               pattern="periodic", horizon=40, seed=2,
                               drift=DriftSpec(period=10, amplitude=0.5, transition_drift=True))
        built = []
        real = TabularMdp.__post_init__
        monkeypatch.setattr(TabularMdp, "__post_init__", lambda m: built.append(m) or real(m))
        cfg = ScheduleConfig(mode="fixed", fixed_value=0.1)
        planner_run_many(spec, [cfg, cfg])
        td_train_many([spec, spec], [cfg, cfg], [0, 1], 5, 10, 8)
        assert built == []
        assert len(generate_sequence(spec)) == 40 and len(built) > 1  # the count sees builds

    def test_meta_mu_as_the_mdp_holds_it(self):
        # an int mu (as a config may give) is written as an int
        from driftsched import ScheduleConfig, planner_run, td_train

        spec = SoftMdpSequence(base=goal_chain_mdp(mu=1), pattern="abrupt", horizon=20,
                               drift=DriftSpec(change_times=(9,)), seed=1)
        cfg = ScheduleConfig(mode="fixed", fixed_value=0.1)
        for trace in (planner_run(spec, cfg), td_train(spec, cfg, 5, 10, 8)):
            assert type(trace.meta["mu"]) is int and trace.meta["mu"] == 1


@pytest.mark.parametrize("call", [
    lambda mu: softmax([1.0, 2.0], mu),
    lambda mu: log_sum_exp([1.0, 2.0], mu),
    lambda mu: soft_values(np.zeros((2, 3)), mu),
    lambda mu: soft_values(np.zeros((2, 2, 3)), np.array([0.2, mu])),
    lambda mu: soft_policy(np.zeros((2, 3)), mu),
    lambda mu: surrogate_gap(np.zeros((2, 3)), np.full((2, 3), 1 / 3), mu),
], ids=["softmax", "log_sum_exp", "soft_values", "soft_values_column", "soft_policy",
        "surrogate_gap"])
def test_nan_temperature_refused(call):
    # each check reads "not mu > 0", so a NaN temperature fails it as 0 does
    with pytest.raises(NonPositiveTemperature):
        call(math.nan)


class TestVariationBudget:
    def test_steady_zero(self):
        seq = generate_sequence(self.spec("steady"))
        _, _, total = variation_budget(seq)
        assert total == 0.0

    def spec(self, pattern, **kw):
        return SoftMdpSequence(
            base=random_mdp(3, 2, rng=np.random.default_rng(2)),
            pattern=pattern, horizon=12, drift=DriftSpec(**kw), seed=9,
        )

    def test_single_flip_magnitude(self):
        spec = self.spec("abrupt", change_times=(6,))
        seq = generate_sequence(spec)
        dr, dp, total = variation_budget(seq)
        flip = np.abs(seq[6 - 1].rewards - seq[6 - 2].rewards).max()
        assert total == pytest.approx(flip)

    def test_matches_brute_force(self):
        spec = self.spec("mixed", change_times=(4,), magnitude=0.5, period=5,
                         amplitude=0.4, transition_drift=True)
        seq = generate_sequence(spec)
        dr, dp, total = variation_budget(seq)
        want = 0.0
        v_max = (seq[0].r_max + seq[0].mu * math.log(seq[0].n_actions)) / (1 - seq[0].gamma)
        for a, b in zip(seq, seq[1:]):
            want += np.abs(b.rewards - a.rewards).max()
            want += seq[0].gamma * v_max * np.abs(b.transitions - a.transitions).sum(axis=2).max()
        assert total == pytest.approx(want, abs=1e-10)

    def test_a_spec_reads_as_its_sequence(self):
        # variation_budget reads the plan, which a spec and its MDP list share
        spec = self.spec("mixed", change_times=(4,), magnitude=0.5, period=5,
                         amplitude=0.4, transition_drift=True)
        for got, want in zip(variation_budget(spec), variation_budget(generate_sequence(spec))):
            assert np.array_equal(got, want)
        with pytest.raises(ShapeMismatch):
            variation_budget([random_mdp(3, 2), random_mdp(4, 2)])


class TestSolvedSequenceDrift:
    def test_policy_drift_bounded_by_table_drift(self):
        # consecutive solved tables along a drifting sequence: per-state
        # policy movement stays below the sup-norm table drift over mu
        base = random_mdp(5, 3, gamma=0.9, mu=0.2, rng=np.random.default_rng(6))
        spec = SoftMdpSequence(
            base=base, pattern="mixed", horizon=15,
            drift=DriftSpec(change_times=(6,), magnitude=0.4, period=7,
                            amplitude=0.5, transition_drift=True),
            seed=21,
        )
        seq = generate_sequence(spec)
        tables = [solve_soft_q(m, 1e-10) for m in seq]
        for q_prev, q_next in zip(tables, tables[1:]):
            pi_prev = soft_policy(q_prev, 0.2)
            pi_next = soft_policy(q_next, 0.2)
            drift_cap = np.abs(q_next - q_prev).max() / 0.2
            per_state = np.abs(pi_next - pi_prev).sum(axis=1)
            assert (per_state <= drift_cap + 1e-8).all()

    def test_table_drift_bounded_by_variation(self):
        base = random_mdp(5, 3, gamma=0.9, mu=0.2, rng=np.random.default_rng(8))
        spec = SoftMdpSequence(
            base=base, pattern="linear", horizon=10,
            drift=DriftSpec(transition_drift=True), seed=3,
        )
        seq = generate_sequence(spec)
        tol = 1e-10
        tables = [solve_soft_q(m, tol) for m in seq]
        delta_r, delta_p, _ = variation_budget(seq)
        gamma, mu = 0.9, 0.2
        for i in range(1, len(seq)):
            v_sup = np.abs(soft_values(tables[i - 1], mu)).max()
            cap = (delta_r[i] + gamma * v_sup * delta_p[i]) / (1 - gamma)
            assert np.abs(tables[i] - tables[i - 1]).max() <= cap + 4 * tol


class TestStockTasks:
    def test_goal_chain_moves(self):
        m = goal_chain_mdp(5)
        assert m.rewards[4, 1] == 1.0
        # left from state 2 lands in 1, right lands in 3
        assert m.transitions[2, 0, 1] == 1.0
        assert m.transitions[2, 2, 3] == 1.0
