"""Randomized numerical checks for every identity, inequality and bound.

Each check draws seeded samples, evaluates an independent left- and
right-hand side, and reports the worst violation against a stated
tolerance. Identities use |lhs - rhs|, inequalities use lhs - rhs.
Tolerances are absolute and include solver-propagated slack where fixed
points are involved: those come from softmdp.solve_soft_q, on a stack of
MDPs where a check needs many, and satisfy ||TQ - Q|| <= solver_tol.

Sixteen checks draw all samples in order, then evaluate them in one stacked
call per kernel (one group per vector length or (S, A) shape where it varies,
one solver chain per sequence), with each sample's own bits. Their MDP samplers
draw arrays, which TabularMdp's rules check once per stack; a TabularMdp or
SimplexVec is built only to describe the worst case. _worst scans every report.
Samplers make one generator call per run of like draws, with numpy's bits (_draw).
The three regret reports run all their mirror-descent streams, whatever their
floor, schedule or horizon, in one lockstep pass per width class of K
(_per_stream), with rows redrawn a chunk of rounds at a time.
"""

from __future__ import annotations

import math
import zlib
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import SamplerFailure
from .omd import (CHUNK, ExplicitConstants, _check_iterates as _validate_rows, _row_dots,
                  _run_lockstep, bound_rhs, proxy_bound_rhs, run_dynamic)
from .scheduler import ScheduleConfig, offline_lambda
from .simplex import (
    _row_divergence,
    _row_lse,
    _row_neg_entropy,
    _row_softmax,
    _truncate_rows,
    softmax,
    truncate,
)
from .softmdp import (
    _MdpStack,
    _validate_mdp,
    _evaluate,
    _occupancies,
    _plan,
    _surrogate_gap,
    _unit_dirichlet,
    DriftSpec,
    SoftMdpSequence,
    TabularMdp,
    random_mdp,
    soft_bellman_apply,
    soft_policy,
    soft_values,
    solve_soft_q,
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


def _uniform(rng, lo, hi) -> float:
    """float(rng.uniform(lo, hi)) bit for bit: numpy's low + (high - low) * next_double."""
    return lo + (hi - lo) * rng.random()


def _draw(name, sampler, n, seed) -> list:
    """n samples of sampler(rng) in order, from the check's seeded rng. A sampler makes
    one generator call per run of like draws, by the generator's own arithmetic
    (_unit_dirichlet, _uniform), with the bits and stream position of a call per draw; an
    integers draw, which buffers half a 64-bit word, ends a run."""
    rng = _rng(seed, name)
    try:
        return [sampler(rng) for _ in range(n)]
    except Exception as exc:
        raise SamplerFailure(f"{name}: sampler raised {exc!r}") from exc


def _worst(name, samples, lhs, rhs, tol, violation, describe=None) -> CheckReport:
    """Report over samples with lhs and rhs columns: the worst case is the first of
    largest violation(lhs, rhs), a NaN counting as +inf (a failure), named by the
    repr of describe(sample) (default: the sample)."""
    if not samples:
        raise ValueError("need at least one sample")
    v = violation(np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float))
    v[np.isnan(v)] = math.inf
    i = int(np.argmax(v))
    worst = samples[i] if describe is None else describe(samples[i])
    return CheckReport(name=name, samples=len(samples), max_violation=float(v[i]),
                       tolerance=tol, worst_case=_describe(worst))


def _gap(a, b):
    return abs(a - b)


def _excess(a, b):
    return a - b


def check_identity(name, lhs_fn, rhs_fn, sampler, n: int, tol: float,
                   seed: int = 0) -> CheckReport:
    """max |lhs - rhs| over n seeded samples against tol."""
    samples = _draw(name, sampler, n, seed)
    return _worst(name, samples, [lhs_fn(s) for s in samples], [rhs_fn(s) for s in samples],
                  tol, _gap)


def check_inequality(name, lhs_fn, rhs_fn, sampler, n: int, tol: float,
                     seed: int = 0) -> CheckReport:
    """max (lhs - rhs) over n seeded samples; passes when <= tol."""
    samples = _draw(name, sampler, n, seed)
    return _worst(name, samples, [lhs_fn(s) for s in samples], [rhs_fn(s) for s in samples],
                  tol, _excess)


def _check_samples(name, samples, tol: float) -> CheckReport:
    """check_inequality over precomputed (lhs, rhs, ...) tuples."""
    return _worst(name, samples, [s[0] for s in samples], [s[1] for s in samples],
                  tol, _excess)


# ---------------------------------------------------------------------------
# simplex geometry


def _per_shape(samples, columns_of):
    """lhs and rhs columns over tuple samples whose array shapes vary: columns_of
    gets each part of the samples whose first part has one shape, stacked ((m, ...)
    arrays, (m,) floats), and returns their lhs and rhs."""
    groups = {}
    for i, sample in enumerate(samples):
        groups.setdefault(sample[0].shape, []).append(i)
    lhs, rhs = np.empty(len(samples)), np.empty(len(samples))
    for members in groups.values():
        lhs[members], rhs[members] = columns_of(*map(np.stack, zip(*(samples[i] for i in members))))
    return lhs, rhs


def _softmax_rows(z, mu):
    """softmax of each row at its temperature, with the checks SimplexVec makes."""
    p = _row_softmax(z / mu[:, None])
    p = p / p.sum(axis=-1, keepdims=True)
    _validate_rows(p, 0.0)
    return p


def _check_entropy_range(seed, n=2000):
    def columns(x):
        h = _row_neg_entropy(x)
        return np.maximum(h - 0.0, -math.log(x.shape[-1]) - h), np.zeros(len(x))

    samples = _draw("entropy_range", lambda rng: _unit_dirichlet(rng, int(rng.integers(2, 33))),
                    n, seed)
    return _worst("entropy_range", samples, *_per_shape([(x,) for x in samples], columns),
                  1e-12, _excess)


def _check_entropy_grad_bound(seed, n=2000):
    def sampler(rng):  # a point and the floor to truncate it at
        k = int(rng.integers(2, 33))
        eps = _uniform(rng, 1e-6, 1.0 / k)
        return _unit_dirichlet(rng, k), eps

    def columns(x, eps):
        x = _truncate_rows(x, eps)
        _validate_rows(x, eps[:, None])  # SimplexVec's checks on each truncated row
        return np.abs(1.0 + np.log(x)).max(axis=-1), [1.0 + abs(math.log(e)) for e in eps]

    samples = _draw("entropy_grad_bound", sampler, n, seed)
    return _worst("entropy_grad_bound", samples, *_per_shape(samples, columns), 1e-12,
                  _excess, describe=lambda s: truncate(*s))


def _check_bregman_equals_kl(seed, n=1000):
    def sampler(rng):
        return tuple(_unit_dirichlet(rng, int(rng.integers(2, 9)), (2,)))

    def columns(x, y):
        return _row_divergence(x, y, bregman=True), _row_divergence(x, y)

    samples = _draw("bregman_equals_kl", sampler, n, seed)
    return _worst("bregman_equals_kl", samples, *_per_shape(samples, columns), 1e-10, _gap)


def _check_pinsker(seed, n=2000):
    def sampler(rng):
        return tuple(_unit_dirichlet(rng, int(rng.integers(2, 17)), (2,)))

    def columns(x, y):
        return 0.5 * np.abs(x - y).sum(axis=-1) ** 2, _row_divergence(x, y)

    name = "pinsker_strong_convexity"
    samples = _draw(name, sampler, n, seed)
    return _worst(name, samples, *_per_shape(samples, columns), 1e-12, _excess)


def _vector_pair(rng):
    k = int(rng.integers(2, 17))
    mu = _uniform(rng, 0.05, 5.0)
    return *rng.uniform(-10, 10, (2, k)), mu


def _check_lse_lipschitz(seed, n=2000):
    def columns(x, y, mu):
        lse = lambda z: mu * _row_lse(z / mu[:, None])  # log_sum_exp of each row
        return np.abs(lse(x) - lse(y)), np.abs(x - y).max(axis=-1)

    samples = _draw("lse_lipschitz", _vector_pair, n, seed)
    return _worst("lse_lipschitz", samples, *_per_shape(samples, columns), 1e-10, _excess)


def _check_softmax_drift(seed, n=2000):
    def columns(x, y, mu):
        return (np.abs(_softmax_rows(x, mu) - _softmax_rows(y, mu)).sum(axis=-1),
                np.abs(x - y).max(axis=-1) / mu)

    samples = _draw("softmax_drift", _vector_pair, n, seed)
    return _worst("softmax_drift", samples, *_per_shape(samples, columns), 1e-10, _excess)


def _check_softmax_jacobian_tight(seed):
    # finite-difference probe of the inf->1 operator norm at the binary
    # uniform point, where it attains 1/mu
    def sampler(rng):
        return _uniform(rng, 0.05, 5.0)

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
        lo = _uniform(rng, 0.01, 1.0)
        hi = _uniform(rng, lo, 10.0)
        c1 = _uniform(rng, 0.1, 10.0)
        c2 = _uniform(rng, 0.1, 10.0)
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
        a_total = _uniform(rng, 0.01, 50.0)
        horizon = int(rng.integers(1, 5000))
        c1 = _uniform(rng, 0.1, 10.0)
        c2 = _uniform(rng, 0.1, 10.0)
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
    return rewards, _unit_dirichlet(rng, s, (n, s, a))


def _mdp_draw(rng, s, a):
    """The rewards and transitions random_mdp(s, a, rng=rng) draws, in its order."""
    return rng.uniform(-1.0, 1.0, size=(s, a)), _unit_dirichlet(rng, s, (s, a))


def _as_mdp(rewards, transitions, gamma, mu) -> TabularMdp:
    """The TabularMdp random_mdp builds from its draws."""
    s = rewards.shape[0]
    return TabularMdp(rewards, transitions, gamma, np.full(s, 1.0 / s), mu)


def _mdp_stack(rewards, transitions, gamma, mu) -> _MdpStack:
    """The _MdpStack of (n, S, A) draws with random_mdp's uniform rho, checked once by
    TabularMdp's rules; gamma and mu are one number or one per entry."""
    rho = np.full(rewards.shape[1], 1.0 / rewards.shape[1])
    _validate_mdp(rewards, transitions, gamma, rho, mu, 1.0, stacked=True)
    return _MdpStack(rewards, transitions, gamma, mu, 1.0, rho)


def _check_soft_backup_contraction(seed, n=1000):
    def sampler(rng):
        s, a = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        gamma, mu = _uniform(rng, 0.5, 0.99), _uniform(rng, 0.05, 1.0)
        rewards, transitions = _mdp_draw(rng, s, a)
        scale = _MdpStack(rewards, transitions, gamma, mu).q_bound()
        return rewards, transitions, gamma, mu, *rng.uniform(-scale, scale, size=(2, s, a))

    def columns(rewards, transitions, gamma, mu, q1, q2):
        mdp = _mdp_stack(rewards, transitions, gamma, mu)
        return (_sup(soft_bellman_apply(mdp, q1) - soft_bellman_apply(mdp, q2)),
                gamma * _sup(q1 - q2))

    name = "soft_backup_contraction"
    samples = _draw(name, sampler, n, seed)
    return _worst(name, samples, *_per_shape(samples, columns), 1e-10, _excess,
                  describe=lambda s: (_as_mdp(*s[:4]), *s[4:]))


def _perturbed_pair(rng, s=5, a=3):
    """Rewards and transitions of an MDP and of an alternate one, and a random
    weight w: (r1, p1, r_alt, p_alt, w). The next drift step mixes them (_pair_stack)."""
    return *_mdp_draw(rng, s, a), *_mdp_draw(rng, s, a), _uniform(rng, 0.0, 1.0)


def _pair_stack(pairs):
    """(2n, S, A) rewards and transitions of n _perturbed_pair draws: each first MDP, then
    each mix w M_alt + (1 - w) M1, formed in place with the bits of each pair's own mix."""
    r1, p1, r_alt, p_alt, w = zip(*pairs)
    n, w = len(w), np.array(w)[:, None, None]
    rewards, transitions = np.stack(r1 + r_alt), np.stack(p1 + p_alt)
    for x, wx in ((rewards, w), (transitions, w[..., None])):
        x[n:] *= wx
        x[n:] += (1 - wx) * x[:n]
    return rewards, transitions


def _sup(x):
    """Sup norm of each (S, A) table or S-vector of a stack."""
    return np.abs(x).max(axis=tuple(range(1, x.ndim)))


def _model_drift(m1: _MdpStack, m2: _MdpStack):
    """Sup-norm reward change and worst-row l1 transition change per entry."""
    return _sup(m2.rewards - m1.rewards), _sup(np.abs(m2.transitions - m1.transitions).sum(axis=-1))


def _check_operator_drift(seed, n=1000):
    gamma, mu = 0.9, 0.2

    def sampler(rng):
        pair = _perturbed_pair(rng)
        scale = _MdpStack(*pair[:2], gamma, mu).q_bound()
        return *pair, rng.uniform(-scale, scale, size=pair[0].shape)

    samples = _draw("operator_drift_bound", sampler, n, seed)
    rewards, transitions = _pair_stack(s[:5] for s in samples)
    m1 = _mdp_stack(rewards[:n], transitions[:n], gamma, mu)
    m2 = _mdp_stack(rewards[n:], transitions[n:], gamma, mu)
    q = np.stack([s[5] for s in samples])
    lhs = _sup(soft_bellman_apply(m2, q) - soft_bellman_apply(m1, q))
    delta_r, delta_p = _model_drift(m1, m2)
    rhs = delta_r + gamma * _sup(soft_values(q, mu)) * delta_p
    return _worst("operator_drift_bound", samples, lhs, rhs, 1e-10, _excess, lambda x: (
        *(_as_mdp(r, p, gamma, mu) for r, p in zip(*_pair_stack([x[:5]]))), x[5]))


def _check_fixed_point_sensitivity(seed, n=1000, solver_tol=1e-10):
    rng = _rng(seed, "fixed_point_sensitivity")
    s_dim, a_dim, gamma, mu = 5, 3, 0.9, 0.2
    # every first MDP, then every second one; the two halves are views
    rewards, transitions = _pair_stack([_perturbed_pair(rng, s_dim, a_dim) for _ in range(n)])
    m1 = _mdp_stack(rewards[:n], transitions[:n], gamma, mu)
    m2 = _mdp_stack(rewards[n:], transitions[n:], gamma, mu)
    q1, q2 = np.split(solve_soft_q(_MdpStack(rewards, transitions, gamma, mu), solver_tol), 2)
    delta_r, delta_p = _model_drift(m1, m2)
    rhs = (delta_r + gamma * _sup(soft_values(q1, mu)) * delta_p) / (1.0 - gamma)
    samples = list(zip(_sup(q2 - q1).tolist(), rhs.tolist(), delta_r.tolist(), delta_p.tolist()))
    return _check_samples("fixed_point_sensitivity", samples, tol=4 * solver_tol)


def _check_q_value_bounds(seed, n=1000, solver_tol=1e-9):
    rng = _rng(seed, "q_value_bounds")
    s_dim, a_dim, gamma, mu = 5, 3, 0.9, 0.2
    rewards, transitions = _random_mdp_batch(rng, n, s_dim, a_dim)
    q_all = solve_soft_q(_MdpStack(rewards, transitions, gamma, mu), solver_tol)
    q_bound = (1.0 + gamma * mu * math.log(a_dim)) / (1.0 - gamma)
    v_bound = (1.0 + mu * math.log(a_dim)) / (1.0 - gamma)
    samples = [(max(q_sup - q_bound, v_sup - v_bound), 0.0, q_sup, v_sup)
               for q_sup, v_sup in zip(_sup(q_all).tolist(),
                                       _sup(soft_values(q_all, mu)).tolist())]
    return _check_samples("q_value_bounds", samples, tol=solver_tol)


def _check_squared_drift_conversion(seed, n_sequences=100, steps=12,
                                    solver_tol=1e-9):
    rng = _rng(seed, "squared_drift_conversion")
    s_dim, a_dim, gamma, mu = 5, 3, 0.9, 0.2
    patterns = ("abrupt", "linear", "periodic", "mixed")
    rewards = np.empty((n_sequences, steps, s_dim, a_dim))
    transitions = np.empty(rewards.shape + (s_dim,))
    for i in range(n_sequences):  # one chain per sequence, each with its own stopping test
        base = random_mdp(s_dim, a_dim, gamma=gamma, mu=mu, rng=rng)
        drift = DriftSpec(change_times=(max(2, steps // 3), max(3, 2 * steps // 3)),
                          magnitude=0.5, period=max(2, steps // 2), amplitude=0.4,
                          transition_drift=bool(i % 2))
        plan, path = _plan(SoftMdpSequence(
            base=base, pattern=patterns[i % len(patterns)], horizon=steps, drift=drift,
            seed=int(rng.integers(1 << 31))))
        entries = plan.stack(path)  # each distinct entry mixed once
        rewards[i], transitions[i] = entries.rewards, entries.transitions
    q_all = solve_soft_q(_MdpStack(rewards, transitions, gamma, mu), solver_tol)
    drifts = np.abs(np.diff(q_all, axis=1)).max(axis=(2, 3))
    q_max = (1.0 + gamma * mu * math.log(a_dim)) / (1.0 - gamma)
    samples = list(zip((drifts ** 2).sum(axis=1).tolist(),
                       (2.0 * q_max * drifts.sum(axis=1)).tolist()))
    report = _check_samples("squared_drift_conversion", samples, tol=1e-6)
    return replace(report, samples=n_sequences * (steps - 1))


def _check_surrogate_gap_range(seed, n=1000, solver_tol=1e-9):
    rng = _rng(seed, "surrogate_gap_range")
    s_dim, a_dim, gamma, mu = 5, 3, 0.9, 0.2
    rewards, transitions = _random_mdp_batch(rng, n, s_dim, a_dim)
    q_all = solve_soft_q(_MdpStack(rewards, transitions, gamma, mu), solver_tol)
    policies = _unit_dirichlet(rng, a_dim, (n, s_dim))
    q_max = (1.0 + gamma * mu * math.log(a_dim)) / (1.0 - gamma)
    gap_cap = 2.0 * q_max + mu * math.log(a_dim)
    gaps = _surrogate_gap(q_all, policies, soft_policy(q_all, mu), mu)
    samples = [(max(-lo, hi - gap_cap), 0.0, lo, hi)
               for lo, hi in zip(gaps.min(axis=-1).tolist(), gaps.max(axis=-1).tolist())]
    return _check_samples("surrogate_gap_range", samples, tol=1e-8)


def _check_occupancy_mismatch_bound(seed, n=1000, solver_tol=1e-9):
    rng = _rng(seed, "occupancy_mismatch_bound")
    s_dim, a_dim, gamma, mu = 5, 3, 0.9, 0.2
    mdp = _mdp_stack(*_random_mdp_batch(rng, n, s_dim, a_dim), gamma, mu)
    q_all = solve_soft_q(mdp, solver_tol)
    q_max = (1.0 + gamma * mu * math.log(a_dim)) / (1.0 - gamma)
    gap_cap = 2.0 * q_max + mu * math.log(a_dim)

    policies = _unit_dirichlet(rng, a_dim, (n, s_dim))  # the numbers of n draws of (S, A)
    pi_star = soft_policy(q_all, mu)
    gaps = _surrogate_gap(q_all, policies, pi_star, mu)
    d_star, d_tilde = _occupancies(mdp, np.stack([pi_star, policies]))
    occ_err = (_row_dots(d_star, gaps) - _row_dots(d_tilde, gaps)) / (1.0 - gamma)
    l1 = np.abs(d_star - d_tilde).sum(axis=-1)
    samples = [(abs(e), gap_cap * l / (1.0 - gamma))
               for e, l in zip(occ_err.tolist(), l1.tolist())]
    return _check_samples("occupancy_mismatch_bound", samples, tol=1e-8)


def _check_occupancy_policy_sensitivity(seed, n=1000):
    s, a, mu = 5, 3, 0.2

    def sampler(rng):
        gamma = _uniform(rng, 0.5, 0.95)
        return *_mdp_draw(rng, s, a), gamma, *_unit_dirichlet(rng, a, (2, s))

    name = "occupancy_policy_sensitivity"
    samples = _draw(name, sampler, n, seed)
    rewards, transitions, gamma, pi1, pi2 = map(np.stack, zip(*samples))
    mdp = _mdp_stack(rewards, transitions, gamma, mu)
    d1, d2 = _occupancies(mdp, np.stack([pi1, pi2]))
    rhs = gamma / (1.0 - gamma) * np.abs(pi1 - pi2).sum(axis=-1).max(axis=-1)
    return _worst(name, samples, np.abs(d1 - d2).sum(axis=-1), rhs, 1e-10, _excess,
                  describe=lambda x: (_as_mdp(*x[:3], mu), *x[3:]))


def _check_fenchel_young_gap(seed, n=1000):
    def sampler(rng):
        a = int(rng.integers(2, 9))
        mu = _uniform(rng, 0.05, 2.0)
        return rng.uniform(-5, 5, a), _unit_dirichlet(rng, a), mu

    def columns(q, pi, mu):
        f = lambda p: -_row_dots(q, p) + mu * _row_neg_entropy(p)
        pi_star = _softmax_rows(q, mu)
        return f(pi) - f(pi_star), mu * _row_divergence(pi, pi_star)

    samples = _draw("fenchel_young_gap", sampler, n, seed)
    return _worst("fenchel_young_gap", samples, *_per_shape(samples, columns), 1e-10, _gap)


def _check_performance_difference(seed, n=200):
    s, a, gamma, mu = 4, 3, 0.9, 0.2

    def sampler(rng):
        return *_mdp_draw(rng, s, a), *_unit_dirichlet(rng, a, (2, s))

    name = "performance_difference"
    samples = _draw(name, sampler, n, seed)
    rewards, transitions, pi, pi_prime = map(np.stack, zip(*samples))
    mdp = _mdp_stack(rewards, transitions, gamma, mu)
    (q_pi, _), (v_pi, v_prime) = _evaluate(mdp, np.stack([pi, pi_prime]))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pi = np.where(pi > 0.0, np.log(np.where(pi > 0.0, pi, 1.0)), 0.0)
    kl_rows = _row_divergence(pi_prime.reshape(-1, a), pi.reshape(-1, a)).reshape(n, s)
    adv = q_pi - mu * log_pi - v_pi[..., None]
    d_prime = _occupancies(mdp, pi_prime)
    inner = (pi_prime * adv).sum(axis=-1) - mu * kl_rows
    rhs = _row_dots(d_prime, inner) / (1.0 - gamma)
    return _worst(name, samples, _row_dots(mdp.rho, v_prime - v_pi), rhs, 1e-7, _gap,
                  describe=lambda x: (_as_mdp(x[0], x[1], gamma, mu), *x[2:]))


# ---------------------------------------------------------------------------
# regret bound batteries


def _gradient_rows(rng, rows, k, g_bound=1.0):
    """(rows, K) uniform gradients; draws of c rows in turn give the rows of one draw."""
    return rng.uniform(-g_bound, g_bound, (rows, k))


def _piecewise_stream(rng, k, horizon, g_bound=1.0, min_switches=1,
                      max_switches=5):
    """(T, K) gradients, then the switch times (rounds in 2..T) and the
    comparator points of a stream that switches a few times.

    The one (T, K) draw gives the same numbers, and leaves rng in the
    same state, as T draws of K. The comparator of round t is
    _comparators(times, points, t).
    """
    grads = _gradient_rows(rng, horizon, k, g_bound)
    n_switch = int(rng.integers(min_switches, max_switches + 1))
    times = np.sort(rng.choice(np.arange(2, horizon + 1), size=n_switch,
                               replace=False))
    points = _unit_dirichlet(rng, k, n_switch + 1)
    return grads, times, points


def _comparators(times, points, rounds):
    """The comparator rows of the given rounds: points[j] after j switches."""
    return points[np.searchsorted(times, rounds, side="right")]


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


# A regret-check stream: rows(t, c) gives the (c, K) gradients of rounds t + 1 .. t + c,
# in turn; the comparator of round t is _comparators(times, points, t); result maps the
# stream's trace to what its check reads.
_Stream = namedtuple("_Stream", "k rows g_bound times points horizon eps cfg result")


def _draw_streams(rng, n_streams, horizon):
    """(K, max |g|, rows, switch times, points) of n_streams piecewise streams from rng.
    Each draws its K, then its gradients, switch times and points, in order; its rows
    are redrawn from a copy of rng taken before its gradients."""
    for _ in range(n_streams):
        k = int(rng.integers(2, 17))
        snapshot = np.random.Generator(type(rng.bit_generator)())
        snapshot.bit_generator.state = rng.bit_generator.state
        grads, times, points = _piecewise_stream(rng, k, horizon)
        yield (k, float(np.abs(grads).max()),
               lambda t, c, gen=snapshot, k=k: _gradient_rows(gen, c, k), times, points)


def _per_stream(streams):
    """Each stream's result, in stream order, from one omd._run_lockstep pass per width
    class W(K) = 8 floor(K/8) + 7, whatever check, floor, schedule or horizon a stream
    has. A class runs zero-padded to W, which keeps each stream's bits, in order of
    falling horizon, so a stream leaves the live prefix at its horizon. Its gradient
    rows come from each stream's rows and its comparator rows are gathered in one call
    from the switch counts, CHUNK rounds at a time, so no (B, T, K) array is held. The
    drift is nonzero only at a switch, where it is |points[j+1] - points[j]|.sum(), the
    per-round drift's bits. A class's traces are dropped once their results are taken.
    """
    classes = {}
    for i in sorted(range(len(streams)), key=lambda i: -streams[i].horizon):
        classes.setdefault(8 * (streams[i].k // 8) + 7, []).append(i)
    results = [None] * len(streams)
    for width, members in classes.items():
        block = [streams[i] for i in members]
        n, horizon, most = len(block), block[0].horizon, max(len(s.times) for s in block)
        alpha, start = np.zeros((n, horizon)), np.zeros((n, width))
        switched, stops = np.zeros((n, horizon), np.int8), np.zeros((n, most + 1, width))
        for j, s in enumerate(block):
            alpha[j, s.times - 1] = np.abs(np.diff(s.points, axis=0)).sum(axis=1)
            start[j, :s.k] = 1.0 / s.k  # the uniform point, on every floor eps <= 1/K
            switched[j, s.times - 1], stops[j, :len(s.points), :s.k] = 1, s.points
        switched = switched.cumsum(axis=1, dtype=np.int8)  # [j, t - 1]: switches by t, <= 5
        horizons = np.array([s.horizon for s in block])
        grads = np.zeros((n, min(CHUNK, horizon), width))  # pads stay 0

        def rows(t, c):
            live = np.count_nonzero(horizons > t)
            for j, s in enumerate(block[:live]):
                grads[j, :c, :s.k] = s.rows(t, c)
            return grads[:live, :c], stops[np.arange(live)[:, None], switched[:live, t:t + c]]

        traces = _run_lockstep(rows, alpha, [s.cfg for s in block], [s.eps for s in block],
                               start, np.array([s.k for s in block]),
                               [s.g_bound for s in block], horizons)
        for i, s in zip(members, block):
            results[i] = s.result(traces.pop(0))
    return results


def _tradeoff_streams(seed, n_streams, horizon, c2_factor):
    """The trade-off check's online-schedule streams and, last, its tight stream. A
    result is the (trade-off, online-proxy) sample pair; the tight one has no second."""
    online_cfg = ScheduleConfig(c1=1.0, c2=1.0, c=1.0, lambda_min=0.05,
                                lambda_max=1.0, ema_beta=0.0, mode="online")

    def samples(trace):
        k, m = trace.meta["k"], trace.meta
        consts = ExplicitConstants.derive_from_trace(trace)
        scaled = ExplicitConstants(
            c0=math.log(k) / (m["c"] * m["lambda_min"]) + c2_factor * consts.c2 * m["lambda1"],
            c1=consts.c1, c2=c2_factor * consts.c2,
        )
        measured = float(trace.column("regret_cum")[-1])
        return ((measured, bound_rhs(trace, scaled), k),
                (measured, proxy_bound_rhs(trace, consts, k), k))

    grads, comparators, cfg, eps = _tight_tradeoff_instance(horizon)
    return [_Stream(k, rows, g, times, points, horizon, 1e-6, online_cfg, samples)
            for k, g, rows, times, points in _draw_streams(
                _rng(seed, "tradeoff_streams"), n_streams, horizon)] + [
        _Stream(2, lambda t, c: grads[t:t + c], float(np.abs(grads).max()), np.zeros(0, int),
                comparators[:1], horizon, eps, cfg, lambda trace: samples(trace)[:1])]


def _tradeoff_reports(pairs):
    return (_check_samples("coupled_tradeoff_regret_bound", [p[0] for p in pairs], 1e-8),
            _check_samples("online_schedule_regret_bound", [p[1] for p in pairs[:-1]], 1e-8))


def _check_tradeoff_bounds(seed, n_streams=100, horizon=1000, c2_factor=1.0):
    """Run online-schedule streams; check the per-round trade-off bound and
    the online-proxy bound on every one, plus the designed tight stream. Alone,
    the check runs that stream through run_dynamic; the suite's pass runs it
    in its W = 7 block."""
    *streams, tight = _tradeoff_streams(seed, n_streams, horizon, c2_factor)
    alone = run_dynamic(*_tight_tradeoff_instance(horizon))
    return _tradeoff_reports(_per_stream(streams) + [tight.result(alone)])


def _oracle_streams(seed, n_streams, horizon):
    """The oracle-schedule check's streams; a result is its (regret, bound, K) sample."""
    eps = 1e-6
    cfg = ScheduleConfig(c1=1.0, c2=1.0, c=1.0, lambda_min=0.05,
                         lambda_max=1.0, mode="oracle")

    def sample(k, c, trace):
        rhs = c.c0 + 2.0 * math.sqrt(c.c1 * c.c2) * float(np.sqrt(trace.column("alpha")[1:]).sum())
        return float(trace.column("regret_cum")[-1]), rhs, k

    streams = []
    for k, g, rows, times, points in _draw_streams(_rng(seed, "oracle_streams"), n_streams,
                                                   horizon):
        c = ExplicitConstants.derive(cfg, g, k, eps, lambda1=0.0)
        streams.append(_Stream(k, rows, g, times, points, horizon, eps,
                               replace(cfg, c1=c.c1, c2=c.c2), partial(sample, k, c)))
    return streams


def _check_oracle_schedule_bound(seed, n_streams=50, horizon=500):
    return _check_samples("oracle_schedule_bound",
                          _per_stream(_oracle_streams(seed, n_streams, horizon)), tol=1e-8)


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
    # the regret reports run all their streams in one _per_stream pass
    tradeoff = _tradeoff_streams(seed, 100, 1000, tradeoff_c2_factor)
    results = _per_stream(tradeoff + _oracle_streams(seed, 50, 500))
    return reports + [*_tradeoff_reports(results[:len(tradeoff)]), _check_samples(
        "oracle_schedule_bound", results[len(tradeoff):], tol=1e-8)]
