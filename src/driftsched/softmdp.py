"""Non-stationary tabular soft MDPs.

One fixed-point solver for the temperature-smoothed Bellman operator, whose
Newton steps and solve chains share one soft pass of values and policy per
table; soft-optimal policies, discounted occupancies and entropy-augmented
returns; and a deterministic drift generator of time-indexed MDP sequences
(steady / abrupt / linear / periodic / mixed) with closed-form variation budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidSpec,
    LengthMismatch,
    NoConvergence,
    NonPositiveTemperature,
    ShapeMismatch,
    SingularSystem,
)
from .simplex import _row_exp, _row_lse, _row_neg_entropy, _row_softmax, as_probs

PATTERNS = ("steady", "abrupt", "linear", "periodic", "mixed")

ROW_TOL = 1e-10


@dataclass(frozen=True)
class TabularMdp:
    """One discounted MDP with a baseline entropy temperature mu.

    transitions has shape (S, A, S) with each (s, a) row a distribution;
    rewards has shape (S, A) with entries in [-r_max, r_max].
    """

    rewards: np.ndarray
    transitions: np.ndarray
    gamma: float
    rho: np.ndarray
    mu: float
    r_max: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "rewards", np.asarray(self.rewards, dtype=float))
        object.__setattr__(self, "transitions", np.asarray(self.transitions, dtype=float))
        object.__setattr__(self, "rho", as_probs(self.rho))
        _validate_mdp(self.rewards, self.transitions, self.gamma, self.rho, self.mu, self.r_max)

    @property
    def n_states(self) -> int:
        return self.rewards.shape[0]

    @property
    def n_actions(self) -> int:
        return self.rewards.shape[1]

    def q_bound(self) -> float:
        """Sup-norm bound on the soft-optimal Q table."""
        return (self.r_max + self.gamma * self.mu * math.log(self.rewards.shape[-1])) / (
            1.0 - self.gamma
        )

    def v_bound(self) -> float:
        """Sup-norm bound on the induced soft state values."""
        return (self.r_max + self.mu * math.log(self.rewards.shape[-1])) / (1.0 - self.gamma)


def _validate_mdp(r, p, gamma, rho, mu, r_max, stacked=False) -> None:
    """TabularMdp's rules, on one MDP or (stacked) on (n, S, A) rewards and (n, S, A, S)
    transitions, with rho (S,) or (n, S) and gamma and mu one number or one per entry;
    each check fails on NaN, and P is read by reductions, with no temporary of its size."""
    if r.ndim != 2 + stacked:
        raise ShapeMismatch("rewards must be S x A")
    s, a = r.shape[-2:]
    if p.shape != r.shape + (s,):
        raise ShapeMismatch(f"transitions must be {(s, a, s)}, got {p.shape[stacked:]}")
    if rho.shape not in ((s,), r.shape[:-1]):
        raise ShapeMismatch("rho must have one entry per state")
    holds = np.all if stacked else bool
    if not holds((0.0 < gamma) & (gamma < 1.0)):
        raise ValueError("gamma must lie in (0, 1)")
    if not holds(mu > 0.0):
        raise NonPositiveTemperature("mu must be positive")
    if not math.isfinite(r_max):
        raise ValueError(f"r_max must be finite, got {r_max}")
    if not -r_max - ROW_TOL <= r.min(initial=0.0) <= r.max(initial=0.0) <= r_max + ROW_TOL:
        raise ValueError(f"|rewards| exceed r_max={r_max}")
    if not p.min(initial=0.0) >= -ROW_TOL:
        raise ValueError("transition probabilities must be nonnegative")
    if not np.abs(p.sum(axis=-1) - 1.0).max(initial=0.0) <= ROW_TOL:
        raise ValueError("each transition row must sum to 1")
    if not ((rho >= -ROW_TOL).all() and (np.abs(rho.sum(axis=-1) - 1.0) <= ROW_TOL).all()):
        raise ValueError("rho must be a distribution over the states")


def _per_entry(x, ndim: int):
    """One number as is, or an (n,) column shaped to broadcast over (n, ...) arrays of ndim axes."""
    return x.reshape((-1,) + (1,) * (ndim - 1)) if getattr(x, "ndim", 0) else x


def soft_values(q: np.ndarray, mu) -> np.ndarray:
    """Rowwise temperature log-sum-exp: V(s) = mu log sum_a exp(Q(s,a)/mu).

    An (n, S, A) stack of tables may take one mu per table, an (n,) column.
    """
    if not np.all(mu > 0.0):  # NaN fails
        raise NonPositiveTemperature(f"temperature must be > 0, got {mu}")
    q = np.asarray(q, dtype=float)
    return _per_entry(mu, q.ndim - 1) * _row_lse(q / _per_entry(mu, q.ndim))


def soft_bellman_apply(mdp: TabularMdp, q: np.ndarray) -> np.ndarray:
    """One application of the smoothed optimality backup.

    (TQ)(s,a) = r(s,a) + gamma * sum_s' P(s'|s,a) V(s') with V the
    rowwise log-sum-exp of Q at temperature mu; an _MdpStack backs up
    its (n, S, A) stack of tables, with gamma and mu per entry if it has them.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != mdp.rewards.shape:
        raise ShapeMismatch(f"Q must be {mdp.rewards.shape}, got {q.shape}")
    return _backup(mdp, soft_values(q, mdp.mu))


def _backup(mdp, v: np.ndarray) -> np.ndarray:
    """r + gamma P v: the soft backup of the table whose soft values are v."""
    return mdp.rewards + _per_entry(mdp.gamma, 3) * (
        mdp.transitions @ v[..., None, :, None])[..., 0]  # unnamed, P v is freed before the sum


def _soft_pass(q: np.ndarray, mu) -> tuple:
    """(soft_values(q, mu), soft_policy(q, mu)) bit for bit from one pass over Q / mu, mu one
    number or one per (n, S, A) entry; a Q not finite needs _row_exp's np.errstate."""
    e, lse = _row_exp(q / _per_entry(mu, q.ndim))
    e /= e.sum(axis=-1, keepdims=True)
    return _per_entry(mu, q.ndim - 1) * lse[..., 0], e / e.sum(axis=-1, keepdims=True)


class _MdpStack(NamedTuple):
    """Same-shaped MDPs: rewards (n, S, A), P (n, S, A, S); gamma, mu and r_max one
    number or (n,) columns, one per entry, and rho (S,) or (n, S). A plan's stack
    (see _plan) holds every field per entry."""

    rewards: np.ndarray
    transitions: np.ndarray
    gamma: float
    mu: float
    r_max: float = 1.0
    rho: np.ndarray | None = None
    q_bound, v_bound = TabularMdp.q_bound, TabularMdp.v_bound

    def at(self, i):
        """A plan stack's entry i (views and numbers), or the stack of an index list's entries."""
        return _MdpStack(*(x[i] for x in self))


def solve_soft_q(mdp: TabularMdp | _MdpStack, tol: float = 1e-9,
                 q_init: np.ndarray | None = None) -> np.ndarray:
    """Soft policy iteration from q_init (default Q = 0): each Newton step
    replaces Q by the exact value Q^pi of pi = softmax(Q/mu) (Geist,
    Scherrer & Pietquin, "A Theory of Regularized MDPs", ICML 2019).

    Returns TQ once ||TQ - Q|| <= tol*(1-gamma) in sup norm (tol finite and > 0),
    so that ||T(TQ) - TQ|| <= tol; a step takes TQ and pi from one shared pass over
    the rows of Q. Past the first step the iterates are policy values, each at least
    a sweep closer to Q*, so value iteration's sweep bound caps the steps; a nearby
    warm start takes fewer. An (n, S, A) stack is one chain with one stopping test.
    A (C, L, S, A) stack is C chains: each stops on its own test, with its bits
    alone, and leaves the stack (the step cap reads all of q_init).
    """
    return _solve(mdp, tol, q_init)


def _solve(mdp, tol, q_init, first=None) -> np.ndarray:
    """solve_soft_q, its first step on first = _soft_pass(q_init, mdp.mu) if given."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    q = np.zeros_like(mdp.rewards) if q_init is None else np.asarray(q_init, dtype=float)
    reach = float(np.abs(q).max(initial=0.0))
    if not math.isfinite(reach):
        raise ValueError("q_init must be finite")
    if q.shape != mdp.rewards.shape:
        raise ShapeMismatch(f"Q must be {mdp.rewards.shape}, got {q.shape}")
    target = tol * (1.0 - mdp.gamma)
    max_steps = 16 + math.ceil(
        math.log(target / (2.0 * (mdp.q_bound() + reach) + 1e-12)) / math.log(mdp.gamma))
    chains = (1, 2, 3) if q.ndim == 4 else None  # the axes of one chain's test
    out, live = (np.empty_like(q), np.arange(len(q))) if chains else (None, None)
    eye = np.eye(q.shape[-2])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max(max_steps, 1)):
            v, pi = first or _soft_pass(q, mdp.mu)
            q_next, v, first = _backup(mdp, v), None, None  # no v at _evaluate's peak memory
            done = np.abs(q_next - q).max(chains) <= target
            if chains is None and done:
                return q_next
            if chains and done.any():
                out[live[done]], live, pi = q_next[done], live[~done], pi[~done]
                if not live.size:
                    return out
                mdp = mdp._replace(rewards=mdp.rewards[~done], transitions=mdp.transitions[~done])
            q, _ = _evaluate(mdp, pi, eye)
    raise NoConvergence(f"soft policy iteration did not reach {target} in {max_steps} steps")


def _solved_chain(stack: _MdpStack, path, tol: float):
    """Yield (Q*_t, pi*_t, V*_t) along a plan, solving once per flat segment, warm-started.
    A step on the previous step's entry, or on one equal in rewards, transitions, gamma
    and mu (Q* depends on nothing else), yields its arrays again. pi*_t and V*_t are one
    _soft_pass of Q*_t, the next solve's first step if mu is unchanged."""
    q_star = first = None
    r, p, gamma, mu = stack.rewards, stack.transitions, stack.gamma, stack.mu
    for prev, i in zip([None, *path], path):
        if prev is None or not (i == prev or (
                gamma[i] == gamma[prev] and mu[i] == mu[prev]
                and np.array_equal(r[i], r[prev]) and np.array_equal(p[i], p[prev]))):
            warm = first if first and mu[i] == mu[prev] else None
            q_star = _solve(stack.at(i), tol, q_star, warm)
            first = _soft_pass(q_star, mu[i])  # Q* is finite: no np.errstate needed
        yield q_star, first[1], first[0]


def soft_policy(q: np.ndarray, mu: float) -> np.ndarray:
    """Rowwise softmax of Q at temperature mu; returns an S x A policy."""
    if not mu > 0.0:  # NaN fails
        raise NonPositiveTemperature(f"temperature must be > 0, got {mu}")
    pi = _row_softmax(np.asarray(q, dtype=float) / mu)
    return pi / pi.sum(axis=-1, keepdims=True)


def _evaluate(mdp: TabularMdp | _MdpStack, pi: np.ndarray, eye: np.ndarray | None = None):
    """(Q^pi, V^pi) of pi: V solves (I - gamma P_pi) V = sum_a pi (r - mu log pi)
    directly, I = eye if given, and Q = r + gamma P V; a stack solves its n systems at once."""
    p_pi = np.einsum("...sa,...saz->...sz", pi, mdp.transitions)
    per_state = (pi * mdp.rewards).sum(axis=-1) - mdp.mu * _row_neg_entropy(pi)
    lhs = (np.eye(p_pi.shape[-1]) if eye is None else eye) - mdp.gamma * p_pi
    v = np.linalg.solve(lhs, per_state[..., None])[..., 0]
    return _backup(mdp, v), v


def _occupancies(mdp: TabularMdp | _MdpStack, pi: np.ndarray) -> np.ndarray:
    """(..., S) occupancies of (..., S, A) policies on an MDP or on a stack's entries:
    each entry solves (I - gamma P_pi^T) d = (1-gamma) rho in one stacked call."""
    gamma = np.asarray(mdp.gamma)
    lhs = np.einsum("...sa,...saz->...sz", pi, mdp.transitions).swapaxes(-1, -2)
    lhs *= -gamma[..., None, None]  # I - gamma P_pi^T in place: the same bits, one buffer
    lhs += np.eye(lhs.shape[-1])
    try:
        d = np.linalg.solve(lhs, ((1.0 - gamma)[..., None] * mdp.rho)[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - gamma<1 prevents this
        raise SingularSystem(str(exc)) from exc
    total = d.sum(axis=-1)
    off = np.abs(total - 1.0) > 1e-8
    if off.any():
        raise SingularSystem(f"occupancy sums to {total[off].tolist()}")
    return d


def _soft_returns(mdp: TabularMdp | _MdpStack, pi: np.ndarray) -> np.ndarray:
    """J of each entry of a (..., S, A) policy stack on an MDP or on a stack's
    entries, gamma and mu one per entry; entry i has soft_return's bits for entry i."""
    d = _occupancies(mdp, pi)
    mu = np.asarray(mdp.mu)[..., None]
    per_state = (pi * mdp.rewards).sum(axis=-1) - mu * _row_neg_entropy(pi)
    # a (1, S) @ (S, 1) matmul per entry keeps the 1-D dot's bits; einsum does not
    return (d[..., None, :] @ per_state[..., :, None])[..., 0, 0] / (1.0 - np.asarray(mdp.gamma))


def occupancy(mdp: TabularMdp, pi: np.ndarray) -> np.ndarray:
    """Normalized discounted state occupancy of pi, by direct linear solve.

    Solves d = (1-gamma) rho + gamma (P^pi)^T d; the result sums to 1.
    """
    return _occupancies(mdp, np.asarray(pi, dtype=float))


def soft_return(mdp: TabularMdp, pi: np.ndarray) -> float:
    """Entropy-augmented discounted return J(pi) in occupancy form.

    J = 1/(1-gamma) * E_{s~d, a~pi}[r(s,a) - mu log pi(a|s)].
    """
    return float(_soft_returns(mdp, np.asarray(pi, dtype=float)))


def surrogate_gap(q_star: np.ndarray, pi: np.ndarray, mu: float) -> np.ndarray:
    """Statewise loss gap Delta(s) = f_s(pi(.|s)) - f_s(pi*(.|s)) >= 0.

    f_s(p) = -<q_star(s,.), p> + mu * sum p log p is minimized by the
    temperature softmax pi* of q_star(s,.).
    """
    q_star = np.asarray(q_star, dtype=float)
    return _surrogate_gap(q_star, np.asarray(pi, dtype=float),
                          soft_policy(q_star, mu), mu)


def _surrogate_gap(q_star, pi, pi_star, mu: float) -> np.ndarray:
    """surrogate_gap given pi_star = soft_policy(q_star, mu); pi may be a
    (..., S, A) stack of policies."""
    f = -(q_star * pi).sum(axis=-1) + mu * _row_neg_entropy(pi)
    f_star = -(q_star * pi_star).sum(axis=-1) + mu * _row_neg_entropy(pi_star)
    return f - f_star


# ---------------------------------------------------------------------------
# drift generation


@dataclass(frozen=True)
class DriftSpec:
    """Parameters of the drift weight path w_t in [0, 1].

    Every pattern is realized as a convex mixing weight between the base
    configuration and an alternate one: r_t = (1-w_t) r_base + w_t r_alt
    (and likewise for transition rows when transition_drift is set),
    which keeps rewards in range and makes per-step variation computable
    in closed form. The alternate endpoint is drawn from the seed, with
    reward_alt in place of its rewards if given; jitter adds seeded
    uniform noise to its rewards.
    """

    change_times: tuple = ()
    magnitude: float = 1.0
    period: int = 0
    amplitude: float = 0.0
    reward_drift: bool = True
    transition_drift: bool = False
    reward_alt: np.ndarray | None = None
    jitter: float = 0.0

    def __post_init__(self):
        ints = (self.period, *self.change_times)
        if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0 for v in ints):
            raise InvalidSpec(f"period and change times must be ints >= 0, got {ints}")
        for name, top in (("magnitude", 1), ("amplitude", 1), ("jitter", np.finfo(float).max)):
            if not 0 <= getattr(self, name) <= top:  # NaN fails every range
                raise InvalidSpec(f"{name} {getattr(self, name)} outside [0, {top:g}]")


@dataclass(frozen=True)
class SoftMdpSequence:
    """Generator spec for a time-indexed MDP sequence; deterministic in seed.

    The alternate endpoint is drawn from default_rng(seed), its rewards
    replaced by the drift's reward_alt if given. A base that random_mdp
    draws from default_rng with the same seed is that endpoint (random_mdp's
    default generator is default_rng(0), and seed defaults to 0), so the
    sequence never drifts: seed the base differently, as the CLI does with
    [seed, 1017].
    """

    base: TabularMdp
    pattern: str
    horizon: int
    drift: DriftSpec = field(default_factory=DriftSpec)
    seed: int = 0

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise InvalidSpec(f"pattern must be one of {PATTERNS}")
        if self.horizon < 1:
            raise InvalidSpec("horizon must be >= 1")


def _weight_path(spec: SoftMdpSequence) -> np.ndarray:
    d = spec.drift
    t_axis, flips = np.arange(1, spec.horizon + 1), np.zeros(spec.horizon)
    for tc in d.change_times:
        if not 2 <= tc <= spec.horizon:
            raise InvalidSpec(f"change time {tc} outside [2, horizon]")
        flips[tc - 1:] += 1.0
    if spec.pattern == "steady":
        return np.zeros(spec.horizon)
    if spec.pattern == "abrupt":
        return d.magnitude * (flips % 2.0)
    if spec.pattern == "linear":
        return d.magnitude * (t_axis - 1) / max(spec.horizon - 1, 1)
    if d.period < 2:
        raise InvalidSpec("periodic patterns need period >= 2")
    periodic = d.amplitude * 0.5 * (1.0 - np.cos(2.0 * np.pi * (t_axis - 1) / d.period))
    if spec.pattern == "periodic":
        return periodic
    # mixed: abrupt square wave on top of the periodic path
    w = d.magnitude * (flips % 2.0) + periodic
    if (w > 1.0 + 1e-12).any():
        raise InvalidSpec("mixed magnitude + amplitude exceed 1")
    return np.clip(w, 0.0, 1.0)


def _alternate_endpoints(spec: SoftMdpSequence):
    base = spec.base
    d = spec.drift
    rng = np.random.default_rng(spec.seed)
    # draw both endpoints unconditionally so seed alignment is flag-independent
    r_alt = rng.uniform(-base.r_max, base.r_max, size=base.rewards.shape)
    p_alt = _unit_dirichlet(rng, base.n_states, (base.n_states, base.n_actions))
    if d.reward_alt is not None:
        r_alt = np.asarray(d.reward_alt, dtype=float)
        if r_alt.shape != base.rewards.shape:
            raise InvalidSpec("reward_alt has the wrong shape")
        if (np.abs(r_alt) > base.r_max + ROW_TOL).any():
            raise InvalidSpec("reward_alt exceeds r_max")
    if d.jitter > 0.0:
        noise = rng.uniform(-d.jitter, d.jitter, size=r_alt.shape)
        r_alt = np.clip(r_alt + noise, -base.r_max, base.r_max)
    return r_alt, p_alt


def _mix(base: np.ndarray, alt: np.ndarray, weights, drifts: bool) -> np.ndarray:
    """(1 - w) base + w alt per weight, an entry at a time (no temporary of the stack's
    size), or a read-only broadcast of base for a part that does not drift."""
    out = np.broadcast_to(base, (len(weights),) + base.shape)
    if drifts:
        out = np.empty(out.shape)
        for entry, wt in zip(out, weights):
            np.add((1.0 - wt) * base, wt * alt, out=entry)
    return out


def _plan(seq) -> tuple:
    """(stack, path) of a SoftMdpSequence or an MDP list: the _MdpStack of its distinct
    MDPs, every field per entry, in order of first step, and path[t], step t's entry.

    A list has an entry per distinct object. M_t of a spec depends on t only through
    the weight w_t: an entry per distinct weight, mixed by _mix and checked once as a stack.
    """
    spec = isinstance(seq, SoftMdpSequence)
    steps = _weight_path(seq).tolist() if spec else list(seq)
    index = {}
    path = [index.setdefault(k if spec else id(k), len(index)) for k in steps]
    if not spec:
        if not steps:
            raise LengthMismatch("a sequence needs at least one MDP")
        if len({m.rewards.shape for m in steps}) > 1:
            raise ShapeMismatch("every MDP of a sequence needs the same (S, A)")
        mdps = {id(m): m for m in steps}.values()
        return _MdpStack(*(np.array([getattr(m, f) for m in mdps])
                           for f in _MdpStack._fields)), path
    base, drift, n = seq.base, seq.drift, len(index)
    r_alt, p_alt = _alternate_endpoints(seq)
    r = _mix(base.rewards, r_alt, list(index), drift.reward_drift)
    p = _mix(base.transitions, p_alt, list(index), drift.transition_drift)
    _validate_mdp(r, p, base.gamma, base.rho, base.mu, base.r_max, stacked=True)
    return _MdpStack(r, p, *(np.full(n, x) for x in (base.gamma, base.mu, base.r_max)),
                     np.broadcast_to(base.rho, (n,) + base.rho.shape)), path


def generate_sequence(spec: SoftMdpSequence) -> list:
    """Materialize the per-step MDPs M_1..M_T described by the spec: one MDP per
    entry of its _plan, the same object at every step on that entry."""
    stack, path = _plan(spec)
    mdps = [replace(spec.base, rewards=r, transitions=p)
            for r, p in zip(stack.rewards, stack.transitions)]
    return [mdps[i] for i in path]


def variation_budget(seq) -> tuple:
    """Per-step reward/transition variation and the weighted total budget
    of an MDP list or a spec, read from its _plan.

    Returns (delta_r, delta_p, b_total) where delta_r[t] is the sup-norm
    reward change and delta_p[t] the worst-row l1 transition change from
    step t-1 to t (zero at t=0), and
    b_total = sum_t (delta_r + gamma * V_max * delta_p) with
    V_max = (r_max + mu log A) / (1 - gamma).
    """
    stack, path = _plan(seq)
    delta_r, delta_p = np.zeros(len(path)), np.zeros(len(path))
    for t, (i, j) in enumerate(zip(path, path[1:]), start=1):
        delta_r[t] = np.abs(stack.rewards[j] - stack.rewards[i]).max()
        delta_p[t] = np.abs(stack.transitions[j] - stack.transitions[i]).sum(axis=-1).max()
    first = stack.at(path[0])
    return delta_r, delta_p, float((delta_r + first.gamma * first.v_bound() * delta_p).sum())


# ---------------------------------------------------------------------------
# stock tasks


def _unit_dirichlet(rng: np.random.Generator, k: int, size=()) -> np.ndarray:
    """rng.dirichlet(np.ones(k), size) bit for bit and in stream position, without its input
    checks: numpy draws an exponential per entry and scales a row by 1 / its running sum."""
    e = rng.standard_exponential((*size, k) if isinstance(size, tuple) else (size, k))
    e *= 1.0 / e.cumsum(axis=-1)[..., -1:]
    return e


def random_mdp(n_states: int, n_actions: int, gamma: float = 0.9,
               mu: float = 0.2, r_max: float = 1.0,
               rng: np.random.Generator | None = None) -> TabularMdp:
    """Dense random instance: Dirichlet(1) rows, uniform rewards and start."""
    rng = rng or np.random.default_rng(0)
    rewards = rng.uniform(-r_max, r_max, size=(n_states, n_actions))
    transitions = _unit_dirichlet(rng, n_states, (n_states, n_actions))
    rho = np.full(n_states, 1.0 / n_states)
    return TabularMdp(rewards, transitions, gamma, rho, mu, r_max)


def goal_chain_mdp(n_states: int = 5, gamma: float = 0.9, mu: float = 0.2,
                   goal: int | None = None, goal_reward: float = 1.0) -> TabularMdp:
    """Deterministic corridor with actions (left, collect, right).

    Collecting at the goal state pays goal_reward; every other
    (state, action) pays a -0.01 step cost. Movement clamps at the
    ends. The start distribution is uniform.
    """
    if goal is None:
        goal = n_states - 1
    n_actions = 3
    rewards = np.full((n_states, n_actions), -0.01)
    rewards[goal, 1] = goal_reward
    transitions = np.zeros((n_states, n_actions, n_states))
    for s in range(n_states):
        transitions[s, 0, max(s - 1, 0)] = 1.0
        transitions[s, 1, s] = 1.0
        transitions[s, 2, min(s + 1, n_states - 1)] = 1.0
    rho = np.full(n_states, 1.0 / n_states)
    return TabularMdp(rewards, transitions, gamma, rho, mu, r_max=1.0)
