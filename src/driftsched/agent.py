"""Schedule-driven learners on non-stationary soft MDPs.

Two carriers: a full-information statewise mirror-descent planner whose
drift proxy is the sup-norm change of the solved Q table (critic
drift), and a sampled tabular soft-TD learner whose proxy is a quantile
of absolute TD errors and whose scheduled temperature enters both
action sampling and the soft backup target. The planner's proxy depends
on the task alone, so its schedule is fixed before round 1 (open loop);
the TD learner's depends on its own errors (closed loop).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (AlignmentError, BoundaryIterate, LengthMismatch,
                     NonFiniteGradient, ShapeMismatch)
from .omd import _check_floor, _check_iterates, _mirror_step
from .scheduler import ProxyState, ScheduleConfig, _schedule_columns, next_lambda
from .simplex import _row_lse, _row_softmax
from .softmdp import (
    _soft_returns,
    _surrogate_gap,
    SoftMdpSequence,
    generate_sequence,
    soft_policy,
    soft_values,
    solve_soft_q,
)
from .trace import RunTrace

EVAL_CHUNK = 32  # (policy, MDP) entries per stacked evaluation; keeps peak memory flat


def _materialize(seq) -> tuple:
    """(MDP list, pattern, seed) of a SoftMdpSequence spec or a plain MDP list."""
    if isinstance(seq, SoftMdpSequence):
        return generate_sequence(seq), seq.pattern, seq.seed
    return list(seq), "custom", 0


def _solved_tables(mdps, tol: float):
    """Yield (M_t, Q*_t), solving once per flat segment, warm-started.

    A step repeats the previous MDP when it is the same object (as
    generate_sequence gives for a repeated drift weight) or, for
    user-supplied lists, when its rewards, transitions, gamma and mu are
    all equal: Q* depends on nothing else.
    """
    prev, q_star = None, None
    for mdp_t in mdps:
        repeat = prev is not None and (mdp_t is prev or (
            mdp_t.gamma == prev.gamma and mdp_t.mu == prev.mu
            and np.array_equal(mdp_t.rewards, prev.rewards)
            and np.array_equal(mdp_t.transitions, prev.transitions)))
        if not repeat:
            q_star = solve_soft_q(mdp_t, tol, q_init=q_star)
        prev = mdp_t
        yield mdp_t, q_star


def _soft_returns_of(mdps, policies) -> np.ndarray:
    """soft_return(mdps[i], policies[i]) for every i, EVAL_CHUNK entries per
    stacked solve, bit for bit."""
    j = np.empty(len(mdps))
    for lo in range(0, len(mdps), EVAL_CHUNK):
        part = mdps[lo:lo + EVAL_CHUNK]
        j[lo:lo + EVAL_CHUNK] = _soft_returns(
            np.stack([m.rewards for m in part]), np.stack([m.transitions for m in part]),
            np.stack([m.rho for m in part]), np.array([m.gamma for m in part], dtype=float),
            np.array([m.mu for m in part], dtype=float),
            np.asarray(policies[lo:lo + EVAL_CHUNK], dtype=float))
    return j


def planner_run(seq, cfg: ScheduleConfig, eps: float = 1e-6,
                tol: float = 1e-9) -> RunTrace:
    """Drive the planner across a sequence of MDPs (spec or list).

    eps, the floor of every policy row, must lie in [0, 1/A]. This is
    planner_run_many with one schedule.
    """
    return planner_run_many(seq, [cfg], eps, tol)[0]


def planner_run_many(seq, cfgs, eps: float = 1e-6, tol: float = 1e-9) -> list:
    """Drive one planner per schedule across one sequence; one RunTrace each.

    The planner is open-loop: its proxy reading ||Q*_t - Q*_{t-1}||_inf / mu
    and its true drift alpha_t = max_s ||pi*_t(s) - pi*_{t-1}(s)||_1 (both
    0 at t = 1) depend on the solved chain alone, never on the policies
    played. So it runs in three passes, with each schedule's lambda and eta
    columns computed by one _schedule_columns pass after the first:
    - the chain: one walk of _solved_tables records Q*_t, its soft-optimal
      policy pi*_t and soft values V*_t (once per solve: a reused solve
      reuses them, reads 0 and drifts 0) and J*_t = rho_t . V*_t;
    - the mirror steps: one step a round on the (B, S, A) stack of
      policies, every row on the gradient -Q*_t(s,.) + mu (1 + log pi_s) +
      lambda_t (1 + log pi_s);
    - the evaluation: J_t and the surrogate gaps of the played policies,
      EVAL_CHUNK (schedule, round) entries per stacked solve.
    Trace b is planner_run(seq, cfgs[b], ...) bit for bit. Besides its
    policies it carries its (T, S) surrogate gaps as oco_gaps and the
    (T, S) per-state drifts ||pi*_t(s) - pi*_{t-1}(s)||_1, which every
    trace shares, as state_alphas.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise LengthMismatch("cfgs must be nonempty")
    mdps, pattern, seed = _materialize(seq)
    n_states, n_actions = mdps[0].rewards.shape
    _check_floor(eps, n_actions)

    chain, reading, drift_rows = [], [], []  # chain: (M_t, Q*_t, pi*_t, V*_t)
    for mdp_t, q_star in _solved_tables(mdps, tol):
        if chain and q_star is chain[-1][1]:  # |x - x| = 0: no reading, no drift
            chain.append((mdp_t,) + chain[-1][1:])
            reading.append(0.0)
            drift_rows.append(np.zeros(n_states))
            continue
        pi_star = soft_policy(q_star, mdp_t.mu)
        q_prev, pi_prev = chain[-1][1:3] if chain else (q_star, pi_star)  # 0 at t = 1
        reading.append(float(np.abs(q_star - q_prev).max()) / mdp_t.mu)
        drift_rows.append(np.abs(pi_star - pi_prev).sum(axis=1))
        chain.append((mdp_t, q_star, pi_star, soft_values(q_star, mdp_t.mu)))
    state_alphas = np.vstack(drift_rows)
    alpha = state_alphas.max(axis=1)
    horizon, n = len(chain), len(cfgs)
    lam, eta, ema = np.empty((3, n, horizon))
    for b, cfg in enumerate(cfgs):
        lam[b], eta[b], ema[b] = _schedule_columns(cfg, reading, alpha)

    played = np.empty((n, horizon, n_states, n_actions))
    x = np.full((n, n_states, n_actions), 1.0 / n_actions)
    for t, (mdp_t, q_star, _, _) in enumerate(chain):
        if eps == 0.0 and not (x > 0.0).all():
            raise BoundaryIterate("entropy gradient needs all coordinates > 0")
        played[:, t] = x
        logp = np.log(x)
        g = -q_star + mdp_t.mu * (1.0 + logp) + lam[:, t, None, None] * (1.0 + logp)
        if not np.isfinite(g).all():
            raise NonFiniteGradient("gradient contains NaN or infinity")
        x = _mirror_step(logp, g, eta[:, t, None, None], eps)
    _check_iterates(played, eps)

    flat = played.reshape(n * horizon, n_states, n_actions)  # entry b * horizon + t
    rounds = chain * n
    j_played = _soft_returns_of([m for m, *_ in rounds], flat).reshape(n, horizon)
    gaps = np.empty((n * horizon, n_states))
    for lo in range(0, n * horizon, EVAL_CHUNK):
        part = rounds[lo:lo + EVAL_CHUNK]
        gaps[lo:lo + EVAL_CHUNK] = _surrogate_gap(
            np.stack([q for _, q, _, _ in part]), flat[lo:lo + EVAL_CHUNK],
            np.stack([p for _, _, p, _ in part]), np.array([[m.mu] for m, *_ in part]))
    gaps = gaps.reshape(n, horizon, n_states)
    inc = gaps.sum(axis=-1)
    j_star = np.array([float(m.rho @ v_star) for m, _, _, v_star in chain])

    return [RunTrace(columns={
        "t": np.arange(1, horizon + 1), "lambda": lam[b], "eta": eta[b],
        "alpha": alpha, "proxy": ema[b], "regret_inc": inc[b],
        "regret_cum": np.cumsum(inc[b]), "regret_rl_inc": j_star - j_played[b],
        "eval_return": j_played[b],
    }, meta={
        "agent": "planner", "pattern": pattern, "seed": seed,
        "eps": eps, "tol": tol, "mu": mdps[0].mu,
        "c": cfg.c, "lambda_min": cfg.lambda_min, "lambda_max": cfg.lambda_max,
    }, policies=list(played[b]), oco_gaps=gaps[b], state_alphas=state_alphas)
        for b, cfg in enumerate(cfgs)]


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


def _check_td_errors(deltas: np.ndarray) -> None:
    """Fail a run whose TD errors overflowed, where Generator.choice would have."""
    if not np.isfinite(deltas).all():
        raise ValueError("TD errors are not finite: the learner diverged")


def _score_snapshots(snaps, runs, eval_col) -> None:
    """eval_col[t, b] = J of each (t, b, policy) snapshot on learner b's MDP at step t."""
    steps, learners, policies = zip(*snaps)
    eval_col[steps, learners] = _soft_returns_of(
        [runs[b][0][t] for t, b in zip(steps, learners)], policies)


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
    An eval step only stores each learner's softmax policy; the stored
    policies are scored EVAL_CHUNK at a time in stacked solves, as each
    chunk fills and for the rest after the last step. All learners share
    the horizon, the (S, A) shape and the knobs.
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
    alpha = np.array([[next_lambda(c, ProxyState(), 0.0)[0]] for c in cfgs])
    q_rank = np.array([math.ceil(c.quantile_q * batch_size) - 1 for c in cfgs])
    q = np.zeros((n_learners,) + distinct[0].rewards.shape)
    proxies = [ProxyState()] * n_learners
    lam_hist, ema_hist = [alpha[:, 0].copy()], [np.zeros(n_learners)]
    deltas = np.zeros((n_learners, batch_size))
    eval_col = np.full((horizon, n_learners), np.nan)
    snaps = []  # (step, learner, policy) awaiting a stacked evaluation
    # a diverging learner overflows before _check_td_errors names it
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            # draws[i] resets, if t starts an episode
            m, i = m_idx[t], 2 * t + t // episode_len
            if t % episode_len == 0:
                s = _choose(start_cdf[m], draws[i])
            _, s, _, deltas[:, t % batch_size] = _td_transition(
                q, rows, s, draws[i + 1], draws[i + 2], alpha, learn_rate, tables, m, k_idx[t])
            if (t + 1) % batch_size == 0:
                _check_td_errors(deltas)
                raw = np.sort(np.abs(deltas), axis=1)[rows, q_rank]
                for b, cfg in enumerate(cfgs):
                    alpha[b, 0], proxies[b] = next_lambda(cfg, proxies[b], float(raw[b]))
                lam_hist.append(alpha[:, 0].copy())
                ema_hist.append(np.array([p.ema_value for p in proxies]))
            if (t + 1) % eval_every == 0:
                snaps += [(t, b, soft_policy(q[b], alpha[b, 0])) for b in rows]
                while len(snaps) >= EVAL_CHUNK:
                    _score_snapshots(snaps[:EVAL_CHUNK], runs, eval_col)
                    del snaps[:EVAL_CHUNK]
    if snaps:
        _score_snapshots(snaps, runs, eval_col)
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
    j_played = _soft_returns_of(mdps, trace.policies).tolist()
    total = 0.0
    for (mdp_t, q_star), j_t in zip(_solved_tables(mdps, tol), j_played):
        total += float(mdp_t.rho @ soft_values(q_star, mdp_t.mu)) - j_t
    return total
