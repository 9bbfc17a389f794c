"""Schedule-driven learners on non-stationary soft MDPs.

Two carriers: a full-information statewise mirror-descent planner whose
drift proxy is the sup-norm change of the solved Q table (critic
drift), and a sampled tabular soft-TD learner whose proxy is a quantile
of absolute TD errors and whose scheduled temperature enters both
action sampling and the soft backup target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, BoundaryIterate, NonFiniteGradient
from .omd import _check_floor, _check_iterates, _mirror_step
from .scheduler import (
    ProxyState,
    ScheduleConfig,
    eta_from_lambda,
    online_lambda,
    oracle_lambda,
    td_quantile_proxy,
    update_proxy,
)
from .softmdp import (
    SoftMdpSequence,
    TabularMdp,
    generate_sequence,
    soft_policy,
    soft_return,
    soft_values,
    solve_soft_q,
    surrogate_gap,
)
from .trace import RunTrace


@dataclass(frozen=True)
class PlannerState:
    """Statewise policy iterate plus proxy bookkeeping."""

    policy: np.ndarray
    proxy: ProxyState
    prev_q: np.ndarray | None = None
    eta_prev: float = 0.0


def _planner_lambda(state: PlannerState, cfg: ScheduleConfig, raw: float,
                    alpha_true: float) -> tuple:
    proxy = update_proxy(state.proxy, raw, cfg)
    if cfg.mode == "fixed":
        return cfg.fixed_value, proxy
    if cfg.mode == "oracle":
        return oracle_lambda(alpha_true, cfg), proxy
    if cfg.mode == "online":
        return online_lambda(proxy, cfg), proxy
    raise ValueError(f"planner does not support stepwise mode {cfg.mode!r}")


def planner_step(state: PlannerState, mdp_t: TabularMdp, q_star_t: np.ndarray,
                 cfg: ScheduleConfig, eps: float):
    """One full-information round against the solved table q_star_t.

    The raw proxy is ||q_star_t - prev_q||_inf / mu, an upper bound on
    the statewise l1 drift of the softmax-optimal policy. Every state
    row takes one mirror step on the surrogate gradient
    -q_star_t(s,.) + mu (1 + log pi_s) with the scheduled entropy
    regularizer folded in. Returns the new state and a per-round record
    including the return gap of the policy that was played.
    """
    played = state.policy
    _check_floor(eps, played.shape[1])
    _check_iterates(played, eps)
    if (played <= 0.0).any():
        raise BoundaryIterate("entropy gradient needs all coordinates > 0")
    mu = mdp_t.mu
    pi_star = soft_policy(q_star_t, mu)
    if state.prev_q is None:
        raw = 0.0
        alpha_true = 0.0
    else:
        raw = float(np.abs(q_star_t - state.prev_q).max()) / mu
        pi_star_prev = soft_policy(state.prev_q, mu)
        alpha_true = float(np.abs(pi_star - pi_star_prev).sum(axis=1).max())
    lam, proxy = _planner_lambda(state, cfg, raw, alpha_true)
    eta = eta_from_lambda(lam, state.eta_prev, cfg)

    j_star = float(mdp_t.rho @ soft_values(q_star_t, mu))
    j_played = soft_return(mdp_t, played)
    oco_gaps = surrogate_gap(q_star_t, played, mu)

    logp = np.log(played)
    g = -q_star_t + mu * (1.0 + logp) + lam * (1.0 + logp)
    if not np.isfinite(g).all():
        raise NonFiniteGradient("gradient contains NaN or infinity")
    new_policy = _mirror_step(logp, g, eta, eps)

    record = {
        "lambda": lam,
        "eta": eta,
        "proxy_raw": raw,
        "proxy": proxy.ema_value,
        "alpha": alpha_true,
        "regret_rl_inc": j_star - j_played,
        "eval_return": j_played,
        "oco_gaps": oco_gaps,
    }
    new_state = PlannerState(
        policy=new_policy, proxy=proxy, prev_q=np.array(q_star_t), eta_prev=eta
    )
    return new_state, record


def _solve_warm(mdp: TabularMdp, q_init: np.ndarray | None, tol: float) -> np.ndarray:
    """Solve the smoothed fixed point, warm-starting from a nearby table."""
    if q_init is None:
        return solve_soft_q(mdp, tol)
    from .softmdp import soft_bellman_apply

    target = tol * (1.0 - mdp.gamma)
    q = q_init
    for _ in range(10000):
        q_next = soft_bellman_apply(mdp, q)
        if np.abs(q_next - q).max() <= target:
            return q_next
        q = q_next
    return solve_soft_q(mdp, tol)  # pragma: no cover - contraction converges


def _solved_tables(mdps, tol: float):
    """Yield (M_t, Q*_t), solving once per flat segment, warm-started.

    A step repeats the previous MDP when it is the same object (as
    generate_sequence gives for a repeated drift weight) or, for
    user-supplied lists, when its rewards and transitions are equal.
    """
    prev, q_star = None, None
    for mdp_t in mdps:
        repeat = prev is not None and (mdp_t is prev or (
            np.array_equal(mdp_t.rewards, prev.rewards)
            and np.array_equal(mdp_t.transitions, prev.transitions)))
        if not repeat:
            q_star = _solve_warm(mdp_t, q_star, tol)
        prev = mdp_t
        yield mdp_t, q_star


def planner_run(seq, cfg: ScheduleConfig, eps: float = 1e-6,
                tol: float = 1e-9, collect_oco: bool = False) -> RunTrace:
    """Drive planner_step across a sequence of MDPs (spec or list).

    eps, the floor of every policy row, must lie in [0, 1/A].
    """
    if isinstance(seq, SoftMdpSequence):
        mdps = generate_sequence(seq)
        pattern, seed = seq.pattern, seq.seed
    else:
        mdps = list(seq)
        pattern, seed = "custom", 0
    n_states, n_actions = mdps[0].rewards.shape
    _check_floor(eps, n_actions)
    policy0 = np.full((n_states, n_actions), 1.0 / n_actions)
    state = PlannerState(policy=policy0, proxy=ProxyState())

    policies, records, alpha_rows = [], [], []
    prev_pi_star = None
    for mdp_t, q_star in _solved_tables(mdps, tol):
        policies.append(state.policy)
        state, rec = planner_step(state, mdp_t, q_star, cfg, eps)
        records.append(rec)
        if collect_oco:
            pi_star = soft_policy(q_star, mdp_t.mu)
            alpha_rows.append(np.zeros(n_states) if prev_pi_star is None
                              else np.abs(pi_star - prev_pi_star).sum(axis=1))
            prev_pi_star = pi_star

    def col(name):
        return np.asarray([rec[name] for rec in records])

    inc = np.asarray([float(rec["oco_gaps"].sum()) for rec in records])
    columns = {
        "t": np.arange(1, len(records) + 1), "lambda": col("lambda"),
        "eta": col("eta"), "alpha": col("alpha"), "proxy": col("proxy"),
        "regret_inc": inc, "regret_cum": np.cumsum(inc),
        "regret_rl_inc": col("regret_rl_inc"), "eval_return": col("eval_return"),
    }
    meta = {
        "agent": "planner", "pattern": pattern, "seed": seed,
        "eps": eps, "tol": tol, "mu": mdps[0].mu,
        "c": cfg.c, "lambda_min": cfg.lambda_min, "lambda_max": cfg.lambda_max,
    }
    trace = RunTrace(columns=columns, meta=meta, policies=policies)
    if collect_oco:
        trace.oco_gaps = np.vstack([rec["oco_gaps"] for rec in records])
        trace.state_alphas = np.vstack(alpha_rows)
    return trace


@dataclass
class TdLearnerState:
    """Tabular soft-TD learner; owns its Q table and sampling stream."""

    q: np.ndarray
    rng: np.random.Generator
    learn_rate: float
    proxy: ProxyState
    current_state: int


def td_step(state: TdLearnerState, mdp_t: TabularMdp, cfg: ScheduleConfig,
            alpha_t: float):
    """One sampled transition with temperature alpha_t.

    Samples a ~ softmax(q(s,.)/alpha_t), steps the environment, applies
    the smoothed backup target r + gamma * LSE(q(s',.), alpha_t) and
    records the absolute TD error.
    """
    if alpha_t <= 0.0:
        raise ValueError("temperature must be positive")
    s = state.current_state
    probs = soft_policy(state.q[s][None, :], alpha_t)[0]
    a = int(state.rng.choice(mdp_t.n_actions, p=probs))
    s_next = int(state.rng.choice(mdp_t.n_states, p=mdp_t.transitions[s, a]))
    r = float(mdp_t.rewards[s, a])
    target = r + mdp_t.gamma * float(soft_values(state.q[s_next], alpha_t))
    delta = target - state.q[s, a]
    state.q[s, a] += state.learn_rate * delta
    state.current_state = s_next
    return state, {"s": s, "a": a, "s_next": s_next, "r": r, "delta": delta}


def td_train(seq, cfg: ScheduleConfig, batch_size: int = 20,
             eval_every: int = 50, episode_len: int = 20,
             seed: int = 0, learn_rate: float = 0.1) -> RunTrace:
    """Train the soft-TD learner across a drifting sequence.

    Every batch_size steps the quantile proxy is refreshed and the
    temperature rescheduled; every eval_every steps the current softmax
    policy is evaluated exactly on the current MDP. Fully deterministic
    given the seed.
    """
    if min(batch_size, eval_every, episode_len) < 1:
        raise ValueError("batch_size, eval_every and episode_len must be >= 1")
    if isinstance(seq, SoftMdpSequence):
        mdps = generate_sequence(seq)
        pattern, seq_seed = seq.pattern, seq.seed
    else:
        mdps = list(seq)
        pattern, seq_seed = "custom", 0
    horizon = len(mdps)
    n_states, n_actions = mdps[0].rewards.shape
    rng = np.random.default_rng(seed)
    alpha = cfg.fixed_value if cfg.mode == "fixed" else cfg.lambda_min
    state = TdLearnerState(
        q=np.zeros((n_states, n_actions)), rng=rng, learn_rate=learn_rate,
        proxy=ProxyState(), current_state=0,
    )

    lam_col = np.empty(horizon)
    proxy_col = np.empty(horizon)
    eval_col = np.full(horizon, np.nan)
    batch = []
    for t in range(1, horizon + 1):
        mdp_t = mdps[t - 1]
        if (t - 1) % episode_len == 0:
            state.current_state = int(rng.choice(n_states, p=mdp_t.rho))
        state, rec = td_step(state, mdp_t, cfg, alpha)
        batch.append(abs(rec["delta"]))
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
        "t": np.arange(1, horizon + 1),
        "lambda": lam_col,
        "eta": np.zeros(horizon),
        "alpha": np.full(horizon, np.nan),
        "proxy": proxy_col,
        "regret_inc": np.zeros(horizon),
        "regret_cum": np.zeros(horizon),
        "regret_rl_inc": np.full(horizon, np.nan),
        "eval_return": eval_col,
    }
    meta = {
        "agent": "td", "pattern": pattern, "seed": seed, "seq_seed": seq_seed,
        "batch_size": batch_size, "eval_every": eval_every,
        "episode_len": episode_len, "learn_rate": learn_rate,
        "mu": mdps[0].mu,
    }
    return RunTrace(columns=columns, meta=meta)


def rl_dynamic_regret(trace: RunTrace, seq, tol: float = 1e-9) -> float:
    """Sum over rounds of J_t(pi_t^opt) - J_t(pi_t) from stored policies."""
    if isinstance(seq, SoftMdpSequence):
        mdps = generate_sequence(seq)
    else:
        mdps = list(seq)
    if trace.policies is None or len(trace.policies) != len(mdps):
        raise AlignmentError("trace does not carry one policy per sequence step")
    total = 0.0
    for (mdp_t, q_star), pi_t in zip(_solved_tables(mdps, tol), trace.policies):
        j_star = float(mdp_t.rho @ soft_values(q_star, mdp_t.mu))
        total += j_star - soft_return(mdp_t, pi_t)
    return total
