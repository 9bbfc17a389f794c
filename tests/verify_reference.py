"""Per-sample forms of the stacked checks, for test_verify.py.

The library draws each check's samples in order and evaluates them in
one stacked call per kernel. These are the forms it replaced: each
sample's left- and right-hand side computed on its own, through the
public one-vector and one-table kernels with every drawn MDP built as
a TabularMdp, and scanned by check_inequality / check_identity or
_check_samples. A stacked check's report must equal
its reference's on every seed. _check_squared_drift_conversion solves
each sequence in its own call, where the library solves them all as the
chains of one call.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from driftsched.simplex import (
    bregman_neg_entropy,
    kl_div,
    log_sum_exp,
    neg_entropy,
    softmax,
    truncate,
)
from driftsched.softmdp import (
    _MdpStack,
    _evaluate,
    DriftSpec,
    SoftMdpSequence,
    TabularMdp,
    generate_sequence,
    occupancy,
    random_mdp,
    soft_bellman_apply,
    soft_policy,
    soft_values,
    solve_soft_q,
    surrogate_gap,
)
from driftsched.verify import (
    _check_samples,
    _random_mdp_batch,
    _rng,
    check_identity,
    check_inequality,
)


def _check_entropy_range(seed):
    def lhs(x):
        h = neg_entropy(x)
        return max(h - 0.0, -math.log(x.size) - h)

    def sampler(rng):
        return rng.dirichlet(np.ones(int(rng.integers(2, 33))))

    return check_inequality("entropy_range", lhs, lambda x: 0.0, sampler,
                            n=2000, tol=1e-12, seed=seed)


def _check_entropy_grad_bound(seed):
    def sampler(rng):
        k = int(rng.integers(2, 33))
        eps = float(rng.uniform(1e-6, 1.0 / k))
        return truncate(rng.dirichlet(np.ones(k)), eps)

    def lhs(x):
        return float(np.abs(1.0 + np.log(x.probs)).max())

    def rhs(x):
        return 1.0 + abs(math.log(x.epsilon_floor))

    return check_inequality("entropy_grad_bound", lhs, rhs, sampler,
                            n=2000, tol=1e-12, seed=seed)


def _check_bregman_equals_kl(seed):
    def sampler(rng):
        k = int(rng.integers(2, 9))
        return rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))

    return check_identity(
        "bregman_equals_kl",
        lambda s: bregman_neg_entropy(s[0], s[1]),
        lambda s: kl_div(s[0], s[1]),
        sampler, n=1000, tol=1e-10, seed=seed,
    )


def _check_pinsker(seed):
    def sampler(rng):
        k = int(rng.integers(2, 17))
        return rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))

    return check_inequality(
        "pinsker_strong_convexity",
        lambda s: 0.5 * float(np.abs(s[0] - s[1]).sum()) ** 2,
        lambda s: kl_div(s[0], s[1]),
        sampler, n=2000, tol=1e-12, seed=seed,
    )


def _check_lse_lipschitz(seed):
    def sampler(rng):
        k = int(rng.integers(2, 17))
        mu = float(rng.uniform(0.05, 5.0))
        return rng.uniform(-10, 10, k), rng.uniform(-10, 10, k), mu

    return check_inequality(
        "lse_lipschitz",
        lambda s: abs(log_sum_exp(s[0], s[2]) - log_sum_exp(s[1], s[2])),
        lambda s: float(np.abs(s[0] - s[1]).max()),
        sampler, n=2000, tol=1e-10, seed=seed,
    )


def _check_softmax_drift(seed):
    def sampler(rng):
        k = int(rng.integers(2, 17))
        mu = float(rng.uniform(0.05, 5.0))
        return rng.uniform(-10, 10, k), rng.uniform(-10, 10, k), mu

    return check_inequality(
        "softmax_drift",
        lambda s: float(np.abs(softmax(s[0], s[2]).probs
                               - softmax(s[1], s[2]).probs).sum()),
        lambda s: float(np.abs(s[0] - s[1]).max()) / s[2],
        sampler, n=2000, tol=1e-10, seed=seed,
    )


def _check_soft_backup_contraction(seed):
    def sampler(rng):
        s, a = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        mdp = random_mdp(s, a, gamma=float(rng.uniform(0.5, 0.99)),
                         mu=float(rng.uniform(0.05, 1.0)), rng=rng)
        scale = mdp.q_bound()
        q1 = rng.uniform(-scale, scale, size=(s, a))
        q2 = rng.uniform(-scale, scale, size=(s, a))
        return mdp, q1, q2

    return check_inequality(
        "soft_backup_contraction",
        lambda s: float(np.abs(soft_bellman_apply(s[0], s[1])
                               - soft_bellman_apply(s[0], s[2])).max()),
        lambda s: s[0].gamma * float(np.abs(s[1] - s[2]).max()),
        sampler, n=1000, tol=1e-10, seed=seed,
    )


def _perturbed_pair(rng, s=5, a=3, gamma=0.9, mu=0.2):
    """Two MDPs a random convex mix apart, as consecutive drift steps."""
    m1 = random_mdp(s, a, gamma=gamma, mu=mu, rng=rng)
    r_alt = rng.uniform(-1.0, 1.0, size=(s, a))
    p_alt = rng.dirichlet(np.ones(s), size=(s, a))
    w = float(rng.uniform(0.0, 1.0))
    rewards = (1 - w) * m1.rewards + w * r_alt
    transitions = (1 - w) * m1.transitions + w * p_alt
    m2 = TabularMdp(rewards, transitions, gamma, m1.rho, mu, m1.r_max)
    return m1, m2


def _check_operator_drift(seed):
    def sampler(rng):
        m1, m2 = _perturbed_pair(rng)
        scale = m1.q_bound()
        q = rng.uniform(-scale, scale, size=m1.rewards.shape)
        return m1, m2, q

    def lhs(s):
        m1, m2, q = s
        return float(np.abs(soft_bellman_apply(m2, q)
                            - soft_bellman_apply(m1, q)).max())

    def rhs(s):
        m1, m2, q = s
        delta_r = float(np.abs(m2.rewards - m1.rewards).max())
        delta_p = float(np.abs(m2.transitions - m1.transitions).sum(axis=2).max())
        v_sup = float(np.abs(soft_values(q, m1.mu)).max())
        return delta_r + m1.gamma * v_sup * delta_p

    return check_inequality("operator_drift_bound", lhs, rhs, sampler,
                            n=1000, tol=1e-10, seed=seed)


def _check_fixed_point_sensitivity(seed, n=1000, solver_tol=1e-10):
    rng = _rng(seed, "fixed_point_sensitivity")
    s_dim, a_dim, gamma, mu = 5, 3, 0.9, 0.2
    pairs = [_perturbed_pair(rng, s_dim, a_dim, gamma, mu) for _ in range(n)]
    rewards = np.stack([m.rewards for pair in pairs for m in pair])
    transitions = np.stack([m.transitions for pair in pairs for m in pair])
    q_all = solve_soft_q(_MdpStack(rewards, transitions, gamma, mu), solver_tol)

    samples = []
    for i, (m1, m2) in enumerate(pairs):
        q1, q2 = q_all[2 * i], q_all[2 * i + 1]
        delta_r = float(np.abs(m2.rewards - m1.rewards).max())
        delta_p = float(np.abs(m2.transitions - m1.transitions).sum(axis=2).max())
        lhs = float(np.abs(q2 - q1).max())
        v_sup = float(np.abs(soft_values(q1, mu)).max())
        rhs = (delta_r + gamma * v_sup * delta_p) / (1.0 - gamma)
        samples.append((lhs, rhs, delta_r, delta_p))

    return _check_samples("fixed_point_sensitivity", samples, tol=4 * solver_tol)


def _check_q_value_bounds(seed, n=1000, solver_tol=1e-9):
    rng = _rng(seed, "q_value_bounds")
    s_dim, a_dim, gamma, mu = 5, 3, 0.9, 0.2
    rewards, transitions = _random_mdp_batch(rng, n, s_dim, a_dim)
    q_all = solve_soft_q(_MdpStack(rewards, transitions, gamma, mu), solver_tol)
    q_bound = (1.0 + gamma * mu * math.log(a_dim)) / (1.0 - gamma)
    v_bound = (1.0 + mu * math.log(a_dim)) / (1.0 - gamma)
    samples = []
    for q in q_all:
        q_sup, v_sup = float(np.abs(q).max()), float(np.abs(soft_values(q, mu)).max())
        samples.append((max(q_sup - q_bound, v_sup - v_bound), 0.0, q_sup, v_sup))
    return _check_samples("q_value_bounds", samples, tol=solver_tol)


def _check_squared_drift_conversion(seed, n_sequences=100, steps=12,
                                    solver_tol=1e-9):
    rng = _rng(seed, "squared_drift_conversion")
    s_dim, a_dim, gamma, mu = 5, 3, 0.9, 0.2
    patterns = ("abrupt", "linear", "periodic", "mixed")
    samples = []
    total_pairs = 0
    for i in range(n_sequences):
        base = random_mdp(s_dim, a_dim, gamma=gamma, mu=mu, rng=rng)
        pattern = patterns[i % len(patterns)]
        drift = DriftSpec(
            change_times=(max(2, steps // 3), max(3, 2 * steps // 3)),
            magnitude=0.5, period=max(2, steps // 2), amplitude=0.4,
            transition_drift=bool(i % 2),
        )
        spec = SoftMdpSequence(base=base, pattern=pattern, horizon=steps,
                               drift=drift, seed=int(rng.integers(1 << 31)))
        seq = generate_sequence(spec)
        rewards = np.stack([m.rewards for m in seq])
        transitions = np.stack([m.transitions for m in seq])
        q_all = solve_soft_q(_MdpStack(rewards, transitions, gamma, mu), solver_tol)
        drifts = np.abs(np.diff(q_all, axis=0)).max(axis=(1, 2))
        q_max = (1.0 + gamma * mu * math.log(a_dim)) / (1.0 - gamma)
        samples.append((float((drifts ** 2).sum()),
                        float(2.0 * q_max * drifts.sum())))
        total_pairs += steps - 1

    report = _check_samples("squared_drift_conversion", samples, tol=1e-6)
    return replace(report, samples=total_pairs)


def _check_surrogate_gap_range(seed, n=1000, solver_tol=1e-9):
    rng = _rng(seed, "surrogate_gap_range")
    s_dim, a_dim, gamma, mu = 5, 3, 0.9, 0.2
    rewards, transitions = _random_mdp_batch(rng, n, s_dim, a_dim)
    q_all = solve_soft_q(_MdpStack(rewards, transitions, gamma, mu), solver_tol)
    policies = rng.dirichlet(np.ones(a_dim), size=(n, s_dim))
    q_max = (1.0 + gamma * mu * math.log(a_dim)) / (1.0 - gamma)
    gap_cap = 2.0 * q_max + mu * math.log(a_dim)
    samples = []
    for q, pi in zip(q_all, policies):
        gaps = surrogate_gap(q, pi, mu)
        lo, hi = float(gaps.min()), float(gaps.max())
        samples.append((max(-lo, hi - gap_cap), 0.0, lo, hi))
    return _check_samples("surrogate_gap_range", samples, tol=1e-8)


def _check_occupancy_mismatch_bound(seed, n=1000, solver_tol=1e-9):
    rng = _rng(seed, "occupancy_mismatch_bound")
    s_dim, a_dim, gamma, mu = 5, 3, 0.9, 0.2
    rewards, transitions = _random_mdp_batch(rng, n, s_dim, a_dim)
    q_all = solve_soft_q(_MdpStack(rewards, transitions, gamma, mu), solver_tol)
    rho = np.full(s_dim, 1.0 / s_dim)
    q_max = (1.0 + gamma * mu * math.log(a_dim)) / (1.0 - gamma)
    gap_cap = 2.0 * q_max + mu * math.log(a_dim)

    samples = []
    for i in range(n):
        mdp = TabularMdp(rewards[i], transitions[i], gamma, rho, mu)
        pi = rng.dirichlet(np.ones(a_dim), size=s_dim)
        pi_star = soft_policy(q_all[i], mu)
        gaps = surrogate_gap(q_all[i], pi, mu)
        d_star = occupancy(mdp, pi_star)
        d_tilde = occupancy(mdp, pi)
        occ_err = float(d_star @ gaps - d_tilde @ gaps) / (1.0 - gamma)
        l1 = float(np.abs(d_star - d_tilde).sum())
        samples.append((abs(occ_err), gap_cap * l1 / (1.0 - gamma)))

    return _check_samples("occupancy_mismatch_bound", samples, tol=1e-8)


def _check_occupancy_policy_sensitivity(seed):
    def sampler(rng):
        s, a = 5, 3
        mdp = random_mdp(s, a, gamma=float(rng.uniform(0.5, 0.95)),
                         mu=0.2, rng=rng)
        pi1 = rng.dirichlet(np.ones(a), size=s)
        pi2 = rng.dirichlet(np.ones(a), size=s)
        return mdp, pi1, pi2

    def lhs(s):
        mdp, pi1, pi2 = s
        return float(np.abs(occupancy(mdp, pi1) - occupancy(mdp, pi2)).sum())

    def rhs(s):
        mdp, pi1, pi2 = s
        gap = float(np.abs(pi1 - pi2).sum(axis=1).max())
        return mdp.gamma / (1.0 - mdp.gamma) * gap

    return check_inequality("occupancy_policy_sensitivity", lhs, rhs,
                            sampler, n=1000, tol=1e-10, seed=seed)


def _check_fenchel_young_gap(seed):
    def sampler(rng):
        a = int(rng.integers(2, 9))
        mu = float(rng.uniform(0.05, 2.0))
        q_row = rng.uniform(-5, 5, a)
        pi_row = rng.dirichlet(np.ones(a))
        return q_row, pi_row, mu

    def lhs(s):
        q_row, pi_row, mu = s
        f = lambda p: float(-(q_row @ p) + mu * neg_entropy(p))
        pi_star = softmax(q_row, mu).probs
        return f(pi_row) - f(pi_star)

    def rhs(s):
        q_row, pi_row, mu = s
        return mu * kl_div(pi_row, softmax(q_row, mu).probs)

    return check_identity("fenchel_young_gap", lhs, rhs, sampler,
                          n=1000, tol=1e-10, seed=seed)


def _check_performance_difference(seed, n=200):
    def sampler(rng):
        mdp = random_mdp(4, 3, gamma=0.9, mu=0.2, rng=rng)
        pi = rng.dirichlet(np.ones(3), size=4)
        pi_prime = rng.dirichlet(np.ones(3), size=4)
        return mdp, pi, pi_prime

    def lhs(s):
        mdp, pi, pi_prime = s
        _, v = _evaluate(mdp, pi)
        _, v_prime = _evaluate(mdp, pi_prime)
        return float(mdp.rho @ (v_prime - v))

    def rhs(s):
        mdp, pi, pi_prime = s
        q_pi, v_pi = _evaluate(mdp, pi)
        with np.errstate(divide="ignore"):
            log_pi = np.where(pi > 0.0, np.log(np.where(pi > 0.0, pi, 1.0)), 0.0)
        adv = q_pi - mdp.mu * log_pi - v_pi[:, None]
        d_prime = occupancy(mdp, pi_prime)
        kl_rows = np.array(
            [kl_div(pi_prime[s_], pi[s_]) for s_ in range(mdp.n_states)]
        )
        inner = (pi_prime * adv).sum(axis=1) - mdp.mu * kl_rows
        return float(d_prime @ inner) / (1.0 - mdp.gamma)

    return check_identity("performance_difference", lhs, rhs, sampler,
                          n=n, tol=1e-7, seed=seed)


STACKED_CHECKS = (
    "_check_entropy_range",
    "_check_entropy_grad_bound",
    "_check_bregman_equals_kl",
    "_check_pinsker",
    "_check_lse_lipschitz",
    "_check_softmax_drift",
    "_check_operator_drift",
    "_check_fixed_point_sensitivity",
    "_check_q_value_bounds",
    "_check_squared_drift_conversion",
    "_check_surrogate_gap_range",
    "_check_occupancy_mismatch_bound",
    "_check_occupancy_policy_sensitivity",
    "_check_soft_backup_contraction",
    "_check_fenchel_young_gap",
    "_check_performance_difference",
)
