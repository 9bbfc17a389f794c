"""Non-stationary tabular soft MDPs.

Solvers for the temperature-smoothed Bellman operator, soft-optimal
policies, discounted occupancies and entropy-augmented returns, plus a
deterministic drift generator that produces time-indexed MDP sequences
(steady / abrupt / linear / periodic / mixed) with closed-form
variation budgets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    InvalidSpec,
    NoConvergence,
    NonPositiveTemperature,
    ShapeMismatch,
    SingularSystem,
)
from .simplex import _row_lse, _row_softmax, as_probs

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
        r = np.asarray(self.rewards, dtype=float)
        p = np.asarray(self.transitions, dtype=float)
        rho = as_probs(self.rho)
        object.__setattr__(self, "rewards", r)
        object.__setattr__(self, "transitions", p)
        object.__setattr__(self, "rho", rho)
        if r.ndim != 2:
            raise ShapeMismatch("rewards must be S x A")
        s, a = r.shape
        if p.shape != (s, a, s):
            raise ShapeMismatch(f"transitions must be {(s, a, s)}, got {p.shape}")
        if rho.shape != (s,):
            raise ShapeMismatch("rho must have one entry per state")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        # each check is written so that NaN fails it
        if not self.mu > 0.0:
            raise NonPositiveTemperature("mu must be positive")
        if not (np.abs(r) <= self.r_max + ROW_TOL).all():
            raise ValueError(f"|rewards| exceed r_max={self.r_max}")
        if not (p >= -ROW_TOL).all():
            raise ValueError("transition probabilities must be nonnegative")
        if not (np.abs(p.sum(axis=2) - 1.0) <= ROW_TOL).all():
            raise ValueError("each transition row must sum to 1")

    @property
    def n_states(self) -> int:
        return self.rewards.shape[0]

    @property
    def n_actions(self) -> int:
        return self.rewards.shape[1]

    def q_bound(self) -> float:
        """Sup-norm bound on the soft-optimal Q table."""
        return (self.r_max + self.gamma * self.mu * math.log(self.n_actions)) / (
            1.0 - self.gamma
        )

    def v_bound(self) -> float:
        """Sup-norm bound on the induced soft state values."""
        return (self.r_max + self.mu * math.log(self.n_actions)) / (1.0 - self.gamma)


def soft_values(q: np.ndarray, mu: float) -> np.ndarray:
    """Rowwise temperature log-sum-exp: V(s) = mu log sum_a exp(Q(s,a)/mu)."""
    if mu <= 0.0:
        raise NonPositiveTemperature(f"temperature must be > 0, got {mu}")
    return mu * _row_lse(np.asarray(q, dtype=float) / mu)


def soft_bellman_apply(mdp: TabularMdp, q: np.ndarray) -> np.ndarray:
    """One application of the smoothed optimality backup.

    (TQ)(s,a) = r(s,a) + gamma * sum_s' P(s'|s,a) V(s') with V the
    rowwise log-sum-exp of Q at temperature mu.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != mdp.rewards.shape:
        raise ShapeMismatch(f"Q must be {mdp.rewards.shape}, got {q.shape}")
    v = soft_values(q, mdp.mu)
    return mdp.rewards + mdp.gamma * (mdp.transitions @ v)


def solve_soft_q(mdp: TabularMdp, tol: float = 1e-9,
                 q_init: np.ndarray | None = None) -> np.ndarray:
    """Value-iterate the smoothed backup from q_init (default Q = 0) to a
    tol-accurate fixed point.

    Stops when successive iterates differ by at most tol*(1-gamma) in
    sup norm, which leaves the fixed-point residual ||TQ - Q|| <= tol.
    Sweep k's step is at most 2 gamma^k (q_bound + ||q_init||), which
    bounds the sweeps; a warm start from a nearby table takes fewer.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    q = np.zeros_like(mdp.rewards) if q_init is None else np.asarray(q_init, dtype=float)
    reach = float(np.abs(q).max(initial=0.0))
    if not math.isfinite(reach):
        raise ValueError("q_init must be finite")
    target = tol * (1.0 - mdp.gamma)
    max_iter = (
        math.ceil(math.log(target / (2.0 * (mdp.q_bound() + reach) + 1e-12))
                  / math.log(mdp.gamma))
        + 16
    )
    for _ in range(max(max_iter, 1)):
        q_next = soft_bellman_apply(mdp, q)
        if np.abs(q_next - q).max() <= target:
            return q_next
        q = q_next
    raise NoConvergence(f"value iteration did not reach {target} in {max_iter} sweeps")


def soft_policy(q: np.ndarray, mu: float) -> np.ndarray:
    """Rowwise softmax of Q at temperature mu; returns an S x A policy."""
    if mu <= 0.0:
        raise NonPositiveTemperature(f"temperature must be > 0, got {mu}")
    pi = _row_softmax(np.asarray(q, dtype=float) / mu)
    return pi / pi.sum(axis=-1, keepdims=True)


def _policy_entropy_terms(pi: np.ndarray) -> np.ndarray:
    """Rowwise sum of pi log pi with 0 log 0 = 0 (negative entropy)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(pi > 0.0, pi * np.log(np.where(pi > 0.0, pi, 1.0)), 0.0)
    return t.sum(axis=-1)


def policy_eval(mdp: TabularMdp, pi: np.ndarray, tol: float = 1e-9):
    """Entropy-augmented evaluation of a fixed policy.

    Iterates Q(s,a) = r + gamma E_{s'}[V(s')] with
    V(s) = sum_a pi(a|s) (Q(s,a) - mu log pi(a|s)) to the same stopping
    rule as the optimality solver. Returns (Q, V).
    """
    pi = np.asarray(pi, dtype=float)
    if pi.shape != mdp.rewards.shape:
        raise ShapeMismatch(f"policy must be {mdp.rewards.shape}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    ent = -mdp.mu * _policy_entropy_terms(pi)  # mu * H(pi(.|s)) >= 0
    target = tol * (1.0 - mdp.gamma)
    max_iter = (
        math.ceil(math.log(target / (2.0 * mdp.q_bound() + 1e-12)) / math.log(mdp.gamma))
        + 16
    )
    q = np.zeros_like(mdp.rewards)
    for _ in range(max(max_iter, 1)):
        v = (pi * q).sum(axis=1) + ent
        q_next = mdp.rewards + mdp.gamma * (mdp.transitions @ v)
        if np.abs(q_next - q).max() <= target:
            v = (pi * q_next).sum(axis=1) + ent
            return q_next, v
        q = q_next
    raise NoConvergence(f"policy evaluation did not reach {target} in {max_iter} sweeps")


def occupancy(mdp: TabularMdp, pi: np.ndarray) -> np.ndarray:
    """Normalized discounted state occupancy of pi, by direct linear solve.

    Solves d = (1-gamma) rho + gamma (P^pi)^T d; the result sums to 1.
    """
    pi = np.asarray(pi, dtype=float)
    p_pi = np.einsum("sa,saz->sz", pi, mdp.transitions)
    n = mdp.n_states
    lhs = np.eye(n) - mdp.gamma * p_pi.T
    try:
        d = np.linalg.solve(lhs, (1.0 - mdp.gamma) * mdp.rho)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - gamma<1 prevents this
        raise SingularSystem(str(exc)) from exc
    if abs(d.sum() - 1.0) > 1e-8:
        raise SingularSystem(f"occupancy sums to {d.sum()!r}")
    return d


def soft_return(mdp: TabularMdp, pi: np.ndarray) -> float:
    """Entropy-augmented discounted return J(pi) in occupancy form.

    J = 1/(1-gamma) * E_{s~d, a~pi}[r(s,a) - mu log pi(a|s)].
    """
    pi = np.asarray(pi, dtype=float)
    d = occupancy(mdp, pi)
    per_state = (pi * mdp.rewards).sum(axis=1) - mdp.mu * _policy_entropy_terms(pi)
    return float(d @ per_state) / (1.0 - mdp.gamma)


def surrogate_gap(q_star: np.ndarray, pi: np.ndarray, mu: float) -> np.ndarray:
    """Statewise loss gap Delta(s) = f_s(pi(.|s)) - f_s(pi*(.|s)) >= 0.

    f_s(p) = -<q_star(s,.), p> + mu * sum p log p is minimized by the
    temperature softmax pi* of q_star(s,.).
    """
    q_star = np.asarray(q_star, dtype=float)
    return _surrogate_gap(q_star, np.asarray(pi, dtype=float),
                          soft_policy(q_star, mu), mu)


def _surrogate_gap(q_star, pi, pi_star, mu: float) -> np.ndarray:
    """surrogate_gap given pi_star = soft_policy(q_star, mu)."""
    f = -(q_star * pi).sum(axis=1) + mu * _policy_entropy_terms(pi)
    f_star = -(q_star * pi_star).sum(axis=1) + mu * _policy_entropy_terms(pi_star)
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
    in closed form. The alternate endpoint is seeded unless given
    explicitly; jitter adds seeded uniform noise to it.
    """

    change_times: tuple = ()
    magnitude: float = 1.0
    period: int = 0
    amplitude: float = 0.0
    reward_drift: bool = True
    transition_drift: bool = False
    reward_alt: np.ndarray | None = None
    transition_alt: np.ndarray | None = None
    jitter: float = 0.0


@dataclass(frozen=True)
class SoftMdpSequence:
    """Generator spec for a time-indexed MDP sequence; deterministic in seed."""

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
    t_axis = np.arange(1, spec.horizon + 1)
    if not 0.0 <= d.magnitude <= 1.0:
        raise InvalidSpec(f"magnitude {d.magnitude} outside [0, 1]")
    if not 0.0 <= d.amplitude <= 1.0:
        raise InvalidSpec(f"amplitude {d.amplitude} outside [0, 1]")
    for tc in d.change_times:
        if not 2 <= tc <= spec.horizon:
            raise InvalidSpec(f"change time {tc} outside [2, horizon]")
    if spec.pattern == "steady":
        return np.zeros(spec.horizon)
    if spec.pattern == "abrupt":
        flips = np.zeros(spec.horizon)
        for tc in d.change_times:
            flips[tc - 1:] += 1.0
        return d.magnitude * (flips % 2.0)
    if spec.pattern == "linear":
        if spec.horizon == 1:
            return np.zeros(1)
        return d.magnitude * (t_axis - 1) / (spec.horizon - 1)
    if d.period < 2:
        raise InvalidSpec("periodic patterns need period >= 2")
    periodic = d.amplitude * 0.5 * (1.0 - np.cos(2.0 * np.pi * (t_axis - 1) / d.period))
    if spec.pattern == "periodic":
        return periodic
    # mixed: abrupt square wave on top of the periodic path
    flips = np.zeros(spec.horizon)
    for tc in d.change_times:
        flips[tc - 1:] += 1.0
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
    p_alt = rng.dirichlet(
        np.ones(base.n_states), size=(base.n_states, base.n_actions)
    )
    if d.reward_alt is not None:
        r_alt = np.asarray(d.reward_alt, dtype=float)
        if r_alt.shape != base.rewards.shape:
            raise InvalidSpec("reward_alt has the wrong shape")
        if (np.abs(r_alt) > base.r_max + ROW_TOL).any():
            raise InvalidSpec("reward_alt exceeds r_max")
    if d.transition_alt is not None:
        p_alt = np.asarray(d.transition_alt, dtype=float)
        if p_alt.shape != base.transitions.shape:
            raise InvalidSpec("transition_alt has the wrong shape")
    if d.jitter > 0.0:
        noise = rng.uniform(-d.jitter, d.jitter, size=r_alt.shape)
        r_alt = np.clip(r_alt + noise, -base.r_max, base.r_max)
    return r_alt, p_alt


def generate_sequence(spec: SoftMdpSequence) -> list:
    """Materialize the per-step MDPs M_1..M_T described by the spec.

    M_t depends on t only through the mixing weight w_t, so each distinct
    weight is mixed and validated once and its MDP object repeats at
    every step with that weight.
    """
    base = spec.base
    w = _weight_path(spec)
    r_alt, p_alt = _alternate_endpoints(spec)
    by_weight = {}
    for wt in w:
        if wt not in by_weight:
            r_t = base.rewards
            p_t = base.transitions
            if spec.drift.reward_drift:
                r_t = (1.0 - wt) * base.rewards + wt * r_alt
            if spec.drift.transition_drift:
                p_t = (1.0 - wt) * base.transitions + wt * p_alt
            by_weight[wt] = replace(base, rewards=r_t, transitions=p_t)
    return [by_weight[wt] for wt in w]


def variation_budget(seq) -> tuple:
    """Per-step reward/transition variation and the weighted total budget.

    Returns (delta_r, delta_p, b_total) where delta_r[t] is the sup-norm
    reward change and delta_p[t] the worst-row l1 transition change from
    step t-1 to t (zero at t=0), and
    b_total = sum_t (delta_r + gamma * V_max * delta_p) with
    V_max = (r_max + mu log A) / (1 - gamma).
    """
    seq = list(seq)
    if not seq:
        raise ShapeMismatch("empty sequence")
    first = seq[0]
    t_len = len(seq)
    delta_r = np.zeros(t_len)
    delta_p = np.zeros(t_len)
    for i in range(1, t_len):
        a, b = seq[i - 1], seq[i]
        if a.rewards.shape != b.rewards.shape:
            raise ShapeMismatch("sequence mixes MDP sizes")
        delta_r[i] = np.abs(b.rewards - a.rewards).max()
        delta_p[i] = np.abs(b.transitions - a.transitions).sum(axis=2).max()
    v_max = first.v_bound()
    b_total = float((delta_r + first.gamma * v_max * delta_p).sum())
    return delta_r, delta_p, b_total


# ---------------------------------------------------------------------------
# serialization and stock tasks


def sequence_to_json(spec: SoftMdpSequence) -> str:
    d = spec.drift
    doc = {
        "n_states": spec.base.n_states,
        "n_actions": spec.base.n_actions,
        "gamma": spec.base.gamma,
        "mu": spec.base.mu,
        "r_max": spec.base.r_max,
        "rho": spec.base.rho.tolist(),
        "rewards": spec.base.rewards.tolist(),
        "transitions": spec.base.transitions.tolist(),
        "pattern": spec.pattern,
        "horizon": spec.horizon,
        "seed": spec.seed,
        "drift": {
            "change_times": list(d.change_times),
            "magnitude": d.magnitude,
            "period": d.period,
            "amplitude": d.amplitude,
            "reward_drift": d.reward_drift,
            "transition_drift": d.transition_drift,
            "reward_alt": None if d.reward_alt is None else np.asarray(d.reward_alt).tolist(),
            "transition_alt": None if d.transition_alt is None else np.asarray(d.transition_alt).tolist(),
            "jitter": d.jitter,
        },
    }
    return json.dumps(doc, sort_keys=True)


def sequence_from_json(text: str) -> SoftMdpSequence:
    doc = json.loads(text)
    base = TabularMdp(
        rewards=np.asarray(doc["rewards"]),
        transitions=np.asarray(doc["transitions"]),
        gamma=doc["gamma"],
        rho=np.asarray(doc["rho"]),
        mu=doc["mu"],
        r_max=doc["r_max"],
    )
    dd = doc["drift"]
    drift = DriftSpec(
        change_times=tuple(dd["change_times"]),
        magnitude=dd["magnitude"],
        period=dd["period"],
        amplitude=dd["amplitude"],
        reward_drift=dd["reward_drift"],
        transition_drift=dd["transition_drift"],
        reward_alt=None if dd["reward_alt"] is None else np.asarray(dd["reward_alt"]),
        transition_alt=None if dd["transition_alt"] is None else np.asarray(dd["transition_alt"]),
        jitter=dd["jitter"],
    )
    return SoftMdpSequence(
        base=base, pattern=doc["pattern"], horizon=doc["horizon"],
        drift=drift, seed=doc["seed"],
    )


def random_mdp(n_states: int, n_actions: int, gamma: float = 0.9,
               mu: float = 0.2, r_max: float = 1.0,
               rng: np.random.Generator | None = None) -> TabularMdp:
    """Dense random instance: Dirichlet(1) rows, uniform rewards and start."""
    rng = rng or np.random.default_rng(0)
    rewards = rng.uniform(-r_max, r_max, size=(n_states, n_actions))
    transitions = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    rho = np.full(n_states, 1.0 / n_states)
    return TabularMdp(rewards, transitions, gamma, rho, mu, r_max)


def decoy_mdp(n_states: int = 5, n_actions: int = 3, gamma: float = 0.9,
              mu: float = 0.2, drifted: bool = False, good_reward: float = 0.6,
              decoy_reward: float = 0.3, gem_reward: float = 1.0) -> TabularMdp:
    """Uniform-hop task whose drift hides a better action behind a decoy.

    Every action moves to a uniformly random next state, so returns are
    governed purely by per-state action choice. In the base
    configuration state s rewards action s mod A with good_reward. The
    drifted configuration demotes that action to decoy_reward and pays
    gem_reward on action (s+1) mod A; a learner that stops exploring
    keeps the decoy, so post-change discovery is temperature-gated.
    """
    rewards = np.zeros((n_states, n_actions))
    for s in range(n_states):
        if drifted:
            rewards[s, s % n_actions] = decoy_reward
            rewards[s, (s + 1) % n_actions] = gem_reward
        else:
            rewards[s, s % n_actions] = good_reward
    transitions = np.full((n_states, n_actions, n_states), 1.0 / n_states)
    rho = np.full(n_states, 1.0 / n_states)
    return TabularMdp(rewards, transitions, gamma, rho, mu, r_max=1.0)


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
