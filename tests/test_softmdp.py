import json
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from driftsched import (
    DriftSpec,
    InvalidSpec,
    NoConvergence,
    NonPositiveTemperature,
    ShapeMismatch,
    SoftMdpSequence,
    TabularMdp,
    decoy_mdp,
    generate_sequence,
    goal_chain_mdp,
    occupancy,
    policy_eval,
    random_mdp,
    sequence_from_json,
    sequence_to_json,
    soft_bellman_apply,
    soft_policy,
    soft_return,
    soft_values,
    solve_soft_q,
    variation_budget,
)


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

    def test_warm_start_sweeps_from_the_given_table(self, monkeypatch):
        from driftsched import softmdp

        m0, m1 = (random_mdp(6, 3, gamma=0.9, mu=0.2, rng=np.random.default_rng(s))
                  for s in (1, 2))
        q_init = solve_soft_q(m0, 1e-9)
        target, q = 1e-9 * (1 - m1.gamma), q_init
        while True:  # the plain value-iteration loop from q_init
            q_next = soft_bellman_apply(m1, q)
            if np.abs(q_next - q).max() <= target:
                break
            q = q_next
        sweeps = []
        real = softmdp.soft_bellman_apply
        monkeypatch.setattr(softmdp, "soft_bellman_apply",
                            lambda *a: sweeps.append(1) or real(*a))
        warm = solve_soft_q(m1, 1e-9, q_init=q_init)
        assert np.array_equal(warm, q_next)
        n_warm = len(sweeps)
        sweeps.clear()
        cold = solve_soft_q(m1, 1e-9)
        assert 0 < n_warm < len(sweeps)
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
        q, v = policy_eval(m, np.ones((1, 1)), tol=1e-10)
        assert q[0, 0] == pytest.approx(2.0, abs=1e-9)
        assert v[0] == pytest.approx(2.0, abs=1e-9)

    def test_uniform_zero_reward(self):
        n_actions, gamma, mu = 4, 0.6, 0.5
        m = random_mdp(3, n_actions, gamma=gamma, mu=mu)
        m = TabularMdp(np.zeros((3, n_actions)), m.transitions, gamma, m.rho, mu)
        _, v = policy_eval(m, np.full((3, n_actions), 0.25), tol=1e-10)
        assert np.allclose(v, mu * math.log(n_actions) / (1 - gamma), atol=1e-9)

    def test_soft_optimality_consistency(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = random_mdp(4, 3, gamma=0.9, mu=0.2, rng=rng)
            tol = 1e-10
            q_star = solve_soft_q(m, tol)
            _, v = policy_eval(m, soft_policy(q_star, m.mu), tol)
            assert np.abs(v - soft_values(q_star, m.mu)).max() <= 2 * tol * 10


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
            _, v = policy_eval(m, pi, tol=1e-10)
            assert soft_return(m, pi) == pytest.approx(float(m.rho @ v), abs=1e-6)


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
        base = random_mdp(4, 3, rng=np.random.default_rng(0))
        rng = np.random.default_rng(9)
        r_alt = rng.uniform(-1.0, 1.0, size=(4, 3))
        p_alt = rng.dirichlet(np.ones(4), size=(4, 3))
        spec = SoftMdpSequence(
            base=base, pattern="abrupt", horizon=20, seed=5,
            drift=DriftSpec(change_times=(7,), magnitude=0.7, transition_drift=True,
                            reward_alt=r_alt, transition_alt=p_alt),
        )
        for t, m in enumerate(generate_sequence(spec), start=1):
            w = 0.7 if t >= 7 else 0.0
            assert np.array_equal(m.rewards, (1.0 - w) * base.rewards + w * r_alt)
            assert np.array_equal(m.transitions,
                                  (1.0 - w) * base.transitions + w * p_alt)

    def test_transition_drift_rows_stochastic(self):
        spec = self.base_spec("linear", horizon=15, transition_drift=True)
        for m in generate_sequence(spec):
            assert np.allclose(m.transitions.sum(axis=2), 1.0, atol=1e-10)


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


class TestSerialization:
    def test_roundtrip_replay(self):
        spec = SoftMdpSequence(
            base=goal_chain_mdp(goal_reward=0.7),
            pattern="abrupt", horizon=25,
            drift=DriftSpec(change_times=(10,), jitter=0.02,
                            reward_alt=goal_chain_mdp(goal=0).rewards),
            seed=13,
        )
        text = sequence_to_json(spec)
        json.loads(text)  # valid JSON document
        replay = sequence_from_json(text)
        a = generate_sequence(spec)
        b = generate_sequence(replay)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.rewards, mb.rewards)
            assert np.array_equal(ma.transitions, mb.transitions)


class TestStockTasks:
    def test_goal_chain_moves(self):
        m = goal_chain_mdp(5)
        assert m.rewards[4, 1] == 1.0
        # left from state 2 lands in 1, right lands in 3
        assert m.transitions[2, 0, 1] == 1.0
        assert m.transitions[2, 2, 3] == 1.0

    def test_decoy_rewards(self):
        base = decoy_mdp()
        drifted = decoy_mdp(drifted=True)
        assert base.rewards[0, 0] == 0.6
        assert drifted.rewards[0, 0] == 0.3
        assert drifted.rewards[0, 1] == 1.0
