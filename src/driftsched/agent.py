"""Schedule-driven learners on non-stationary soft MDPs.

Two carriers: a full-information statewise mirror-descent planner whose
drift proxy is the sup-norm change of the solved Q table (critic
drift), and a sampled tabular soft-TD learner whose proxy is a quantile
of absolute TD errors and whose scheduled temperature enters both
action sampling and the soft backup target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AlignmentError, BoundaryIterate, LengthMismatch,
                     NonFiniteGradient, ShapeMismatch)
from .omd import _check_floor, _check_iterates, _mirror_step
from .scheduler import (
    ProxyState,
    ScheduleConfig,
    eta_from_lambda,
    online_lambda,
    oracle_lambda,
    update_proxy,
)
from .simplex import _row_lse, _row_softmax
from .softmdp import (
    _surrogate_gap,
    SoftMdpSequence,
    TabularMdp,
    generate_sequence,
    soft_policy,
    soft_return,
    soft_values,
    solve_soft_q,
)
from .trace import RunTrace


@dataclass(frozen=True)
class PlannerState:
    """Statewise policy iterate plus proxy bookkeeping; prev_q and prev_pi
    are the last round's solved table and its soft-optimal policy."""

    policy: np.ndarray
    proxy: ProxyState
    prev_q: np.ndarray | None = None
    eta_prev: float = 0.0
    prev_pi: np.ndarray | None = None

    def __post_init__(self):
        if (self.prev_q is None) != (self.prev_pi is None):
            raise ValueError("prev_q and prev_pi must be both set or both None")


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
        alpha_true = float(np.abs(pi_star - state.prev_pi).sum(axis=1).max())
    lam, proxy = _planner_lambda(state, cfg, raw, alpha_true)
    eta = eta_from_lambda(lam, state.eta_prev, cfg)

    j_star = float(mdp_t.rho @ soft_values(q_star_t, mu))
    j_played = soft_return(mdp_t, played)
    oco_gaps = _surrogate_gap(q_star_t, played, pi_star, mu)

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
        policy=new_policy, proxy=proxy, prev_q=np.array(q_star_t), eta_prev=eta,
        prev_pi=pi_star,
    )
    return new_state, record


def _materialize(seq) -> tuple:
    """(MDP list, pattern, seed) of a SoftMdpSequence spec or a plain MDP list."""
    if isinstance(seq, SoftMdpSequence):
        return generate_sequence(seq), seq.pattern, seq.seed
    return list(seq), "custom", 0


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
            q_star = solve_soft_q(mdp_t, tol, q_init=q_star)
        prev = mdp_t
        yield mdp_t, q_star


def planner_run(seq, cfg: ScheduleConfig, eps: float = 1e-6,
                tol: float = 1e-9, collect_oco: bool = False) -> RunTrace:
    """Drive planner_step across a sequence of MDPs (spec or list).

    eps, the floor of every policy row, must lie in [0, 1/A]. This is
    planner_run_many with one schedule.
    """
    return planner_run_many(seq, [cfg], eps, tol, collect_oco)[0]


def planner_run_many(seq, cfgs, eps: float = 1e-6, tol: float = 1e-9,
                     collect_oco: bool = False) -> list:
    """Drive one planner per schedule across one sequence; one RunTrace each.

    The solved chain (M_t, Q*_t) depends on the sequence and tol alone,
    so it is built once and every schedule's planner_step reads it each
    round; trace b is planner_run(seq, cfgs[b], ...) bit for bit.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise LengthMismatch("cfgs must be nonempty")
    mdps, pattern, seed = _materialize(seq)
    n_states, n_actions = mdps[0].rewards.shape
    _check_floor(eps, n_actions)
    policy0 = np.full((n_states, n_actions), 1.0 / n_actions)
    states = [PlannerState(policy=policy0, proxy=ProxyState())] * len(cfgs)
    runs = [([], [], []) for _ in cfgs]  # policies, records, state alpha rows

    for mdp_t, q_star in _solved_tables(mdps, tol):
        for b, (cfg, (policies, records, alpha_rows)) in enumerate(zip(cfgs, runs)):
            policies.append(states[b].policy)
            prev_pi = states[b].prev_pi
            states[b], rec = planner_step(states[b], mdp_t, q_star, cfg, eps)
            records.append(rec)
            if collect_oco:
                alpha_rows.append(np.zeros(n_states) if prev_pi is None
                                  else np.abs(states[b].prev_pi - prev_pi).sum(axis=1))

    traces = []
    for cfg, (policies, records, alpha_rows) in zip(cfgs, runs):
        col = {name: np.asarray([rec[name] for rec in records]) for name in (
            "lambda", "eta", "alpha", "proxy", "regret_rl_inc", "eval_return")}
        inc = np.asarray([float(rec["oco_gaps"].sum()) for rec in records])
        columns = {
            "t": np.arange(1, len(records) + 1), "lambda": col["lambda"],
            "eta": col["eta"], "alpha": col["alpha"], "proxy": col["proxy"],
            "regret_inc": inc, "regret_cum": np.cumsum(inc),
            "regret_rl_inc": col["regret_rl_inc"], "eval_return": col["eval_return"],
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
        traces.append(trace)
    return traces


@dataclass
class TdLearnerState:
    """Tabular soft-TD learner; owns its Q table and sampling stream."""

    q: np.ndarray
    rng: np.random.Generator
    learn_rate: float
    proxy: ProxyState
    current_state: int


def _cdf(p: np.ndarray) -> np.ndarray:
    """Row-wise cdf = p.cumsum(); cdf /= cdf[-1], as Generator.choice builds it."""
    cdf = p.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _choose(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Generator.choice's cdf.searchsorted(u, side="right") per row: the count of cdf <= u."""
    return (cdf <= u).sum(axis=1)


def _mdp_tables(mdps) -> tuple:
    """Stacked (rewards, gamma, start cdf) of a list of MDPs, the transition cdf
    of each distinct transition array, and the index k of each MDP's cdf.

    MDPs that share a transition array (generate_sequence's without
    transition drift) share its cdf.
    """
    arrays = {}
    k = np.array([arrays.setdefault(id(m.transitions), (len(arrays), m.transitions))[0]
                  for m in mdps])
    return (np.stack([m.rewards for m in mdps]), np.array([m.gamma for m in mdps]),
            np.stack([_cdf(m.rho) for m in mdps]),
            np.stack([_cdf(p) for _, p in arrays.values()]), k)


def _td_transition(q, rows, s, u_act, u_next, alpha, learn_rate, tables, m, k):
    """One sampled soft-TD transition for every row b of the (B, S, A) table q.

    Row b, in state s[b] of the stacked MDP m[b] whose transition cdf is
    next_cdf[k[b]], draws a ~ softmax(q[b, s] / alpha[b]) with u_act[b] and s'
    with u_next[b] (alpha and the uniforms are (B, 1) columns), moves
    q[b, s, a] in place towards r + gamma * LSE(q[b, s'], alpha[b]) and
    returns (a, s', r, delta).
    """
    rewards, gamma, next_cdf = tables
    probs = _row_softmax(q[rows, s] / alpha)  # renormalized as soft_policy does
    a = _choose(_cdf(probs / probs.sum(axis=-1, keepdims=True)), u_act)
    s_next = _choose(next_cdf[k, s, a], u_next)
    r = rewards[m, s, a]
    target = r + gamma[m] * (alpha[:, 0] * _row_lse(q[rows, s_next] / alpha))
    delta = target - q[rows, s, a]
    q[rows, s, a] += learn_rate * delta
    return a, s_next, r, delta


def td_step(state: TdLearnerState, mdp_t: TabularMdp, cfg: ScheduleConfig,
            alpha_t: float):
    """One sampled transition with temperature alpha_t.

    Samples a ~ softmax(q(s,.)/alpha_t), steps the environment, applies
    the smoothed backup target r + gamma * LSE(q(s',.), alpha_t) and
    records the absolute TD error. Raises ValueError, as Generator.choice
    would, once q(s,.)/alpha_t is not finite.
    """
    if alpha_t <= 0.0:
        raise ValueError("temperature must be positive")
    s = state.current_state
    if not np.isfinite(state.q[s] / alpha_t).all():
        raise ValueError(f"q({s},.)/alpha_t is not finite: the learner diverged")
    u = state.rng.random((2, 1))  # the action's and the next state's uniform
    zero = np.zeros(1, dtype=np.intp)
    next_cdf = np.empty((1,) + mdp_t.transitions.shape)
    next_cdf[0, s] = _cdf(mdp_t.transitions[s])  # the kernel reads only row s
    tables = (mdp_t.rewards[None], np.array([mdp_t.gamma]), next_cdf)
    a, s_next, r, delta = _td_transition(
        state.q[None], zero, np.array([s]), u[:1], u[1:], np.array([[alpha_t]]),
        state.learn_rate, tables, zero, zero)
    state.current_state = int(s_next[0])
    return state, {"s": s, "a": int(a[0]), "s_next": state.current_state,
                   "r": float(r[0]), "delta": delta[0]}


def _check_td_errors(deltas: np.ndarray) -> None:
    """Fail a run whose TD errors overflowed, where Generator.choice would have."""
    if not np.isfinite(deltas).all():
        raise ValueError("TD errors are not finite: the learner diverged")


def td_train(seq, cfg: ScheduleConfig, batch_size: int = 20,
             eval_every: int = 50, episode_len: int = 20,
             seed: int = 0, learn_rate: float = 0.1) -> RunTrace:
    """Train the soft-TD learner across a drifting sequence.

    Every batch_size steps the quantile proxy is refreshed and the
    temperature rescheduled; every eval_every steps the current softmax
    policy is evaluated exactly on the current MDP. Fully deterministic
    given the seed. This is td_train_many with one learner; td_train_many
    steps many seeds or schedules in lockstep, each as td_train would.
    """
    return td_train_many([seq], [cfg], [seed], batch_size, eval_every,
                         episode_len, learn_rate)[0]


def td_train_many(seqs, cfgs, seeds, batch_size: int = 20, eval_every: int = 50,
                  episode_len: int = 20, learn_rate: float = 0.1) -> list:
    """Train B independent soft-TD learners in lockstep; one RunTrace each.

    Learner b's trace is td_train(seqs[b], cfgs[b], ..., seed=seeds[b])
    bit for bit, whatever shares the run: its generator draws at once
    every uniform of td_train's reset, action and next-state choices,
    and each step is one _td_transition on the shared (B, S, A) table.
    All learners share the horizon, the (S, A) shape and the knobs.
    """
    if not len(seqs) == len(cfgs) == len(seeds) >= 1:
        raise LengthMismatch("seqs, cfgs and seeds must be nonempty and equally long")
    knobs = (batch_size, eval_every, episode_len)
    if any(isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1 for k in knobs):
        raise ValueError("batch_size, eval_every and episode_len must be ints >= 1")
    if not math.isfinite(learn_rate):
        raise ValueError("learn_rate must be finite")
    made = {id(seq): _materialize(seq) for seq in {id(s): s for s in seqs}.values()}
    runs = [made[id(seq)] for seq in seqs]  # a spec that learners share is built once
    if len(runs[0][0]) < 1 or len({len(mdps) for mdps, _, _ in runs}) > 1:
        raise LengthMismatch("every learner needs the same horizon, at least 1")
    index = {}  # one table entry per distinct MDP object, in order of first use
    m_idx = np.array([[index.setdefault(id(m), len(index)) for m in mdps]
                      for mdps, _, _ in runs]).T.copy()
    distinct = list({id(m): m for mdps, _, _ in runs for m in mdps}.values())
    if len({m.rewards.shape for m in distinct}) > 1:
        raise ShapeMismatch("every MDP needs the same (S, A)")
    rewards, gamma, start_cdf, next_cdf, k = _mdp_tables(distinct)
    tables, k_idx = (rewards, gamma, next_cdf), k[m_idx]

    (horizon, n_learners), rows = m_idx.shape, np.arange(len(runs))
    draws = np.empty((2 * horizon + math.ceil(horizon / episode_len), n_learners, 1))
    for b, sd in enumerate(seeds):
        draws[:, b, 0] = np.random.default_rng(sd).random(len(draws))
    alpha = np.array([[c.fixed_value if c.mode == "fixed" else c.lambda_min] for c in cfgs])
    q_rank = np.array([math.ceil(c.quantile_q * batch_size) - 1 for c in cfgs])
    q = np.zeros((n_learners,) + distinct[0].rewards.shape)
    proxies = [ProxyState()] * n_learners
    lam_hist, ema_hist = [alpha[:, 0].copy()], [np.zeros(n_learners)]
    deltas = np.zeros((n_learners, batch_size))
    eval_col = np.full((horizon, n_learners), np.nan)
    for t in range(horizon):
        m, i = m_idx[t], 2 * t + t // episode_len  # draws[i] resets, if t starts an episode
        if t % episode_len == 0:
            s = _choose(start_cdf[m], draws[i])
        _, s, _, deltas[:, t % batch_size] = _td_transition(
            q, rows, s, draws[i + 1], draws[i + 2], alpha, learn_rate, tables, m, k_idx[t])
        if (t + 1) % batch_size == 0:
            _check_td_errors(deltas)
            raw = np.sort(np.abs(deltas), axis=1)[rows, q_rank]
            for b, cfg in enumerate(cfgs):
                proxies[b] = update_proxy(proxies[b], float(raw[b]), cfg)
                if cfg.mode == "online":
                    alpha[b, 0] = online_lambda(proxies[b], cfg)
            lam_hist.append(alpha[:, 0].copy())
            ema_hist.append(np.array([p.ema_value for p in proxies]))
        if (t + 1) % eval_every == 0:
            for b, (mdps, _, _) in enumerate(runs):
                eval_col[t, b] = soft_return(mdps[t], soft_policy(q[b], alpha[b, 0]))
    _check_td_errors(deltas)  # the steps after the last full batch
    # step t recorded lambda before and the proxy after that step's update
    steps = np.arange(horizon)
    lam_col = np.array(lam_hist)[steps // batch_size]
    proxy_col = np.array(ema_hist)[(steps + 1) // batch_size]

    # the constant columns are read-only broadcasts: no memory per trace
    nan, zero = np.broadcast_to(np.nan, horizon), np.broadcast_to(0.0, horizon)
    return [RunTrace(columns={
        "t": steps + 1, "lambda": lam_col[:, b], "eta": zero, "alpha": nan,
        "proxy": proxy_col[:, b], "regret_inc": zero, "regret_cum": zero,
        "regret_rl_inc": nan, "eval_return": eval_col[:, b],
    }, meta={
        "agent": "td", "pattern": pattern, "seed": seed, "seq_seed": seq_seed,
        "batch_size": batch_size, "eval_every": eval_every,
        "episode_len": episode_len, "learn_rate": learn_rate, "mu": mdps[0].mu,
    }) for b, ((mdps, pattern, seq_seed), seed) in enumerate(zip(runs, seeds))]


def rl_dynamic_regret(trace: RunTrace, seq, tol: float = 1e-9) -> float:
    """Sum over rounds of J_t(pi_t^opt) - J_t(pi_t) from stored policies."""
    mdps = _materialize(seq)[0]
    if trace.policies is None or len(trace.policies) != len(mdps):
        raise AlignmentError("trace does not carry one policy per sequence step")
    total = 0.0
    for (mdp_t, q_star), pi_t in zip(_solved_tables(mdps, tol), trace.policies):
        j_star = float(mdp_t.rho @ soft_values(q_star, mdp_t.mu))
        total += j_star - soft_return(mdp_t, pi_t)
    return total
