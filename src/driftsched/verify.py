"""Randomized numerical checks for every identity, inequality and bound.

Each check draws seeded samples, evaluates an independent left- and
right-hand side, and reports the worst violation against a stated
tolerance. Identities use |lhs - rhs|, inequalities use lhs - rhs.
Tolerances are absolute and include solver-propagated slack where fixed
points are involved: those come from softmdp.solve_soft_q, on a stack of
MDPs where a check needs many, and satisfy ||TQ - Q|| <= solver_tol.
"""

from __future__ import annotations

import copy
import math
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SamplerFailure
from .omd import (ExplicitConstants, bound_rhs, proxy_bound_rhs, run_dynamic,
                  run_dynamic_many)
from .scheduler import ScheduleConfig, offline_lambda
from .simplex import (
    bregman_neg_entropy,
    kl_div,
    log_sum_exp,
    neg_entropy,
    softmax,
    truncate,
)
from .softmdp import (
    _MdpStack,
    DriftSpec,
    SoftMdpSequence,
    TabularMdp,
    generate_sequence,
    occupancy,
    policy_eval,
    random_mdp,
    soft_bellman_apply,
    soft_policy,
    soft_values,
    solve_soft_q,
    surrogate_gap,
)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one randomized verification.

    max_violation > 0 means the worst sample exceeded the claim by that
    amount; <= 0 means every sample had slack. passed is derived.
    """

    name: str
    samples: int
    max_violation: float
    tolerance: float
    worst_case: str = ""
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", self.max_violation <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "max_violation": self.max_violation,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "worst_case": self.worst_case,
        }


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def _describe(sample) -> str:
    text = repr(sample)
    return text if len(text) <= 200 else text[:197] + "..."


def _scan(name, lhs_fn, rhs_fn, sampler, n, tol, rng, violation):
    if n < 1:
        raise ValueError("need at least one sample")
    worst = -math.inf
    worst_sample = None
    for _ in range(n):
        try:
            sample = sampler(rng)
        except Exception as exc:
            raise SamplerFailure(f"{name}: sampler raised {exc!r}") from exc
        v = violation(float(lhs_fn(sample)), float(rhs_fn(sample)))
        if v > worst:
            worst = v
            worst_sample = sample
    return CheckReport(
        name=name, samples=n, max_violation=worst, tolerance=tol,
        worst_case=_describe(worst_sample),
    )


def check_identity(name, lhs_fn, rhs_fn, sampler, n: int, tol: float,
                   seed: int = 0) -> CheckReport:
    """max |lhs - rhs| over n seeded samples against tol."""
    return _scan(name, lhs_fn, rhs_fn, sampler, n, tol, _rng(seed, name),
                 lambda a, b: abs(a - b))


def check_inequality(name, lhs_fn, rhs_fn, sampler, n: int, tol: float,
                     seed: int = 0) -> CheckReport:
    """max (lhs - rhs) over n seeded samples; passes when <= tol."""
    return _scan(name, lhs_fn, rhs_fn, sampler, n, tol, _rng(seed, name),
                 lambda a, b: a - b)


def _check_samples(name, samples, tol: float) -> CheckReport:
    """check_inequality over precomputed (lhs, rhs, ...) tuples."""
    it = iter(samples)
    return check_inequality(name, lambda s: s[0], lambda s: s[1],
                            lambda rng_: next(it), n=len(samples), tol=tol)


# ---------------------------------------------------------------------------
# simplex geometry


def _dirichlet_point(rng, k=None) -> np.ndarray:
    k = k or int(rng.integers(2, 33))
    return rng.dirichlet(np.ones(k))


def _check_entropy_range(seed):
    def sampler(rng):
        return _dirichlet_point(rng)

    def lhs(x):
        h = neg_entropy(x)
        return max(h - 0.0, -math.log(x.size) - h)

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


def _check_softmax_jacobian_tight(seed):
    # finite-difference probe of the inf->1 operator norm at the binary
    # uniform point, where it attains 1/mu
    def sampler(rng):
        return float(rng.uniform(0.05, 5.0))

    def measured(mu):
        t = 1e-5 * mu
        h = np.array([t, -t])
        diff = softmax(h, mu).probs - softmax(-h, mu).probs
        return float(np.abs(diff).sum()) / (2.0 * t)

    return check_inequality(
        "softmax_jacobian_tightness",
        lambda mu: 1.0 / mu - 1e-6,
        measured,
        sampler, n=50, tol=0.0, seed=seed,
    )


# ---------------------------------------------------------------------------
# summation and clipping facts


def _nonneg_sequence(rng):
    n = int(rng.integers(1, 200))
    vals = rng.exponential(1.0, n)
    vals[rng.random(n) < 0.3] = 0.0
    return vals


def _check_prefix_sum_potential(seed):
    def lhs(a):
        prefix = np.cumsum(a)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(prefix > 0.0, a / np.sqrt(prefix), 0.0)
        return float(terms.sum())

    return check_inequality(
        "prefix_sum_potential",
        lhs,
        lambda a: 2.0 * math.sqrt(a.sum()),
        _nonneg_sequence, n=1000, tol=1e-9, seed=seed,
    )


def _check_prefix_average_growth(seed):
    def lhs(a):
        prefix = np.cumsum(a)
        t = np.arange(1, a.size + 1)
        return float(np.sqrt(prefix / t).sum())

    return check_inequality(
        "prefix_average_growth",
        lhs,
        lambda a: 2.0 * math.sqrt(a.size * a.sum()),
        _nonneg_sequence, n=1000, tol=1e-9, seed=seed,
    )


def _check_clip_compensation(seed):
    def sampler(rng):
        n = int(rng.integers(1, 200))
        a = rng.exponential(1.0, n)
        a[rng.random(n) < 0.3] = 0.0
        raw = rng.uniform(0.01, 10.0, n)
        lo = float(rng.uniform(0.01, 1.0))
        hi = float(rng.uniform(lo, 10.0))
        c1 = float(rng.uniform(0.1, 10.0))
        c2 = float(rng.uniform(0.1, 10.0))
        return a, raw, lo, hi, c1, c2

    def lhs(s):
        a, raw, lo, hi, c1, c2 = s
        clipped = np.clip(raw, lo, hi)
        return float((c1 * a / clipped + c2 * clipped).sum())

    def rhs(s):
        a, raw, lo, hi, c1, c2 = s
        return float(
            (c1 * a / raw + c2 * raw).sum() + c1 * a.sum() / hi + c2 * a.size * lo
        )

    return check_inequality("clip_compensation", lhs, rhs, sampler,
                            n=1000, tol=1e-6, seed=seed)


def _check_offline_lambda_minimizer(seed):
    def sampler(rng):
        a_total = float(rng.uniform(0.01, 50.0))
        horizon = int(rng.integers(1, 5000))
        c1 = float(rng.uniform(0.1, 10.0))
        c2 = float(rng.uniform(0.1, 10.0))
        return a_total, horizon, c1, c2

    def grid_argmin(s):
        a_total, horizon, c1, c2 = s
        lams = np.geomspace(1e-4, 10.0, 4000)
        phi = c1 * a_total / lams + c2 * horizon * lams
        center = lams[int(np.argmin(phi))]
        fine = np.linspace(center * 0.98, center * 1.02, 4001)
        phi = c1 * a_total / fine + c2 * horizon * fine
        return float(fine[int(np.argmin(phi))])

    def relative_gap(s):
        a_total, horizon, c1, c2 = s
        cfg = ScheduleConfig(c1=c1, c2=c2)
        closed = offline_lambda(a_total, horizon, cfg)
        return abs(closed - grid_argmin(s)) / closed

    return check_inequality("offline_lambda_minimizer", relative_gap,
                            lambda s: 0.0, sampler, n=50, tol=1e-3, seed=seed)


# ---------------------------------------------------------------------------
# soft MDP machinery: a check that needs many fixed points solves them with
# one soft policy iteration on an _MdpStack; policy values are direct solves


def _random_mdp_batch(rng, n, s, a, r_max=1.0):
    rewards = rng.uniform(-r_max, r_max, size=(n, s, a))
    transitions = rng.dirichlet(np.ones(s), size=(n, s, a))
    return rewards, transitions


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

    idx = iter(range(n))

    def lhs(i):
        q = q_all[i]
        v = soft_values(q, mu)
        return max(float(np.abs(q).max()) - q_bound,
                   float(np.abs(v).max()) - v_bound)

    return check_inequality(
        "q_value_bounds", lhs, lambda i: 0.0,
        lambda rng_: next(idx), n=n, tol=solver_tol, seed=seed,
    )


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

    idx = iter(range(n))

    def lhs(i):
        gaps = surrogate_gap(q_all[i], policies[i], mu)
        return max(float(-gaps.min()), float(gaps.max() - gap_cap))

    return check_inequality(
        "surrogate_gap_range", lhs, lambda i: 0.0,
        lambda rng_: next(idx), n=n, tol=1e-8, seed=seed,
    )


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
        _, v = policy_eval(mdp, pi)
        _, v_prime = policy_eval(mdp, pi_prime)
        return float(mdp.rho @ (v_prime - v))

    def rhs(s):
        mdp, pi, pi_prime = s
        q_pi, v_pi = policy_eval(mdp, pi)
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


# ---------------------------------------------------------------------------
# regret bound batteries


def _piecewise_stream(rng, k, horizon, g_bound=1.0, min_switches=1,
                      max_switches=5):
    """(T, K) gradients and comparators that switch a few times.

    The one (T, K) draw gives the same numbers, and leaves rng in the
    same state, as T draws of K.
    """
    grads = rng.uniform(-g_bound, g_bound, (horizon, k))
    n_switch = int(rng.integers(min_switches, max_switches + 1))
    times = np.sort(rng.choice(np.arange(2, horizon + 1), size=n_switch,
                               replace=False))
    points = np.array([rng.dirichlet(np.ones(k)) for _ in range(n_switch + 1)])
    return grads, points[np.searchsorted(times, np.arange(1, horizon + 1), side="right")]


def _tight_tradeoff_instance(horizon=1000):
    """Alternating two-point stream that keeps the stability term active.

    Gradient signs flip every round against a uniform comparator, so the
    iterate pays close to its per-round stability budget; used to make
    the trade-off bound sensitive to its constants.
    """
    g = 4.0
    sign = np.where(np.arange(horizon) % 2 == 0, 1.0, -1.0)[:, None]
    grads = sign * np.array([g, -g])
    comparators = np.full((horizon, 2), 0.5)
    cfg = ScheduleConfig(mode="fixed", fixed_value=0.1, c=0.5,
                         lambda_min=0.1, lambda_max=0.1)
    return grads, comparators, cfg, 0.25


def _redraw(k, snapshots, horizon):
    """(B, T, K) gradients and comparators of one piecewise stream per generator."""
    grads = np.empty((len(snapshots), horizon, k))
    comparators = np.empty_like(grads)
    for j, snapshot in enumerate(snapshots):
        grads[j], comparators[j] = _piecewise_stream(snapshot, k, horizon)
    return grads, comparators


def _per_stream(rng, n_streams, horizon, results_of):
    """One result for each of n_streams piecewise streams, in stream order.

    Each stream draws its K, then its gradients and comparators, from
    rng. results_of(k, grads, comparators) takes the (B, T, K) arrays of
    all streams of one K and returns a result per stream. A group is
    redrawn from copies of rng taken before each of its streams' draws:
    the numbers are those of the in-order draw, and only one group's
    arrays are held at a time.
    """
    groups = {}
    for i in range(n_streams):
        k = int(rng.integers(2, 17))
        groups.setdefault(k, []).append((i, copy.deepcopy(rng)))
        _piecewise_stream(rng, k, horizon)
    results = [None] * n_streams
    for k, members in groups.items():
        indices, snapshots = zip(*members)
        # no name here holds the arrays: they are freed when results_of returns
        for i, result in zip(indices, results_of(k, *_redraw(k, snapshots, horizon))):
            results[i] = result
    return results


def _check_tradeoff_bounds(seed, n_streams=100, horizon=1000, c2_factor=1.0):
    """Run online-schedule streams; check the per-round trade-off bound and
    the online-proxy bound on every one, plus the designed tight stream."""
    online_cfg = ScheduleConfig(c1=1.0, c2=1.0, c=1.0, lambda_min=0.05,
                                lambda_max=1.0, ema_beta=0.0, mode="online")

    def samples(trace, cfg, k):  # (trade-off sample, online-proxy sample)
        consts = ExplicitConstants.derive_from_trace(trace)
        scaled = ExplicitConstants(
            c0=math.log(k) / (cfg.c * cfg.lambda_min)
            + c2_factor * consts.c2 * trace.meta["lambda1"],
            c1=consts.c1, c2=c2_factor * consts.c2,
        )
        measured = float(trace.column("regret_cum")[-1])
        return ((measured, bound_rhs(trace, scaled), k),
                (measured, proxy_bound_rhs(trace, consts, k), k))

    def group_samples(k, grads, comparators):
        traces = run_dynamic_many(grads, comparators, [online_cfg] * len(grads), 1e-6)
        return [samples(trace, online_cfg, k) for trace in traces]

    pairs = _per_stream(_rng(seed, "tradeoff_streams"), n_streams, horizon, group_samples)
    grads, comparators, cfg, eps = _tight_tradeoff_instance(horizon)
    tight, _ = samples(run_dynamic(grads, comparators, cfg, eps), cfg, 2)

    tradeoff = _check_samples("coupled_tradeoff_regret_bound",
                              [p[0] for p in pairs] + [tight], tol=1e-8)
    online = _check_samples("online_schedule_regret_bound", [p[1] for p in pairs],
                            tol=1e-8)
    return tradeoff, online


def _check_oracle_schedule_bound(seed, n_streams=50, horizon=500):
    eps = 1e-6
    cfg = ScheduleConfig(c1=1.0, c2=1.0, c=1.0, lambda_min=0.05,
                         lambda_max=1.0, mode="oracle")

    def group_samples(k, grads, comparators):
        consts = [ExplicitConstants.derive(cfg, float(np.abs(g).max()), k, eps, lambda1=0.0)
                  for g in grads]
        traces = run_dynamic_many(grads, comparators,
                                  [replace(cfg, c1=c.c1, c2=c.c2) for c in consts], eps)
        samples = []
        for c, trace in zip(consts, traces):
            alphas = trace.column("alpha")
            rhs = c.c0 + 2.0 * math.sqrt(c.c1 * c.c2) * float(np.sqrt(alphas[1:]).sum())
            samples.append((float(trace.column("regret_cum")[-1]), rhs, k))
        return samples

    samples = _per_stream(_rng(seed, "oracle_streams"), n_streams, horizon, group_samples)
    return _check_samples("oracle_schedule_bound", samples, tol=1e-8)


# ---------------------------------------------------------------------------
# suite


def run_suite(seed: int = 0, tradeoff_c2_factor: float = 1.0) -> list:
    """Execute the registered battery; deterministic in the seed.

    tradeoff_c2_factor rescales the stability constant inside the
    trade-off bound check only; setting it below 1 is the built-in
    mutation probe that demonstrates the check is not vacuous.
    """
    reports = [
        _check_entropy_range(seed),
        _check_entropy_grad_bound(seed),
        _check_bregman_equals_kl(seed),
        _check_pinsker(seed),
        _check_lse_lipschitz(seed),
        _check_softmax_drift(seed),
        _check_softmax_jacobian_tight(seed),
        _check_prefix_sum_potential(seed),
        _check_prefix_average_growth(seed),
        _check_clip_compensation(seed),
        _check_offline_lambda_minimizer(seed),
        _check_soft_backup_contraction(seed),
        _check_operator_drift(seed),
        _check_fixed_point_sensitivity(seed),
        _check_q_value_bounds(seed),
        _check_squared_drift_conversion(seed),
        _check_surrogate_gap_range(seed),
        _check_occupancy_mismatch_bound(seed),
        _check_occupancy_policy_sensitivity(seed),
        _check_fenchel_young_gap(seed),
        _check_performance_difference(seed),
    ]
    tradeoff, online = _check_tradeoff_bounds(seed, c2_factor=tradeoff_c2_factor)
    reports.append(tradeoff)
    reports.append(online)
    reports.append(_check_oracle_schedule_bound(seed))
    return reports
