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
from array import array
from bisect import bisect_right
from functools import reduce
from itertools import accumulate
from operator import add

import numpy as np

from .errors import BoundaryIterate, LengthMismatch, NonFiniteGradient, ShapeMismatch
from .omd import _check_floor, _check_iterates, _mirror_step
from .scheduler import ProxyState, ScheduleConfig, _ema, _schedule_columns, next_lambda
from .softmdp import _plan, _soft_returns, _solved_chain, _surrogate_gap, soft_policy
from .trace import RunTrace

EVAL_CHUNK = 32  # (policy, MDP) entries per stacked evaluation; keeps peak memory flat


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
    - the chain: _solved_chain's Q*_t, soft-optimal policy pi*_t and soft values
      V*_t along the _plan (one soft pass per solve, the next solve's first step;
      a reused solve reuses them, reads 0 and drifts 0) and J*_t = rho_t . V*_t;
    - the mirror steps: one step a round on the (B, S, A) stack of
      policies, every row on the gradient -Q*_t(s,.) + mu (1 + log pi_s) +
      lambda_t (1 + log pi_s);
    - the evaluation: J_t and the surrogate gaps of the played policies,
      EVAL_CHUNK (schedule, round) entries per stacked solve on the plan's stack.
    Trace b is planner_run(seq, cfgs[b], ...) bit for bit. Besides its
    policies it carries its (T, S) surrogate gaps as oco_gaps and the
    (T, S) per-state drifts ||pi*_t(s) - pi*_{t-1}(s)||_1, which every
    trace shares, as state_alphas.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise LengthMismatch("cfgs must be nonempty")
    stack, path = _plan(seq)
    n_states, n_actions = stack.rewards.shape[1:]
    _check_floor(eps, n_actions)

    chain = list(_solved_chain(stack, path, tol))  # (Q*_t, pi*_t, V*_t)
    mu = stack.mu[path].tolist()  # each step's mu as its MDP holds it
    reading, drift_rows = [0.0], [np.zeros(n_states)]  # 0 at t = 1
    for (q_prev, pi_prev, _), (q_star, pi_star, _), mu_t in zip(chain, chain[1:], mu[1:]):
        reused = q_star is q_prev  # |x - x| = 0: no reading, no drift
        reading.append(0.0 if reused else float(np.abs(q_star - q_prev).max()) / mu_t)
        drift_rows.append(np.zeros(n_states) if reused else np.abs(pi_star - pi_prev).sum(axis=1))
    state_alphas = np.vstack(drift_rows)
    alpha = state_alphas.max(axis=1)
    horizon, n = len(chain), len(cfgs)
    lam, eta, ema = np.empty((3, n, horizon))
    for b, cfg in enumerate(cfgs):
        lam[b], eta[b], proxy = _schedule_columns(cfg, reading, alpha)
        ema[b] = proxy if cfg.mode == "online" else _ema(reading, cfg.ema_beta)

    played = np.empty((n, horizon, n_states, n_actions))
    x = np.full((n, n_states, n_actions), 1.0 / n_actions)
    for t, ((q_star, _, _), mu_t) in enumerate(zip(chain, mu)):
        if eps == 0.0 and not (x > 0.0).all():
            raise BoundaryIterate("entropy gradient needs all coordinates > 0")
        played[:, t] = x
        logp = np.log(x)
        g = -q_star + mu_t * (1.0 + logp) + lam[:, t, None, None] * (1.0 + logp)
        if not np.isfinite(g).all():
            raise NonFiniteGradient("gradient contains NaN or infinity")
        _mirror_step(logp, g, eta[:, t, None, None], eps, x)
    _check_iterates(played, eps)

    flat = played.reshape(n * horizon, n_states, n_actions)  # entry b * horizon + t
    j_played, gaps = np.empty(n * horizon), np.empty((n * horizon, n_states))
    for lo in range(0, n * horizon, EVAL_CHUNK):
        steps = [k % horizon for k in range(lo, min(lo + EVAL_CHUNK, n * horizon))]
        entries = [path[t] for t in steps]  # the chunk's stack copy is freed after the call
        j_played[lo:lo + EVAL_CHUNK] = _soft_returns(stack.at(entries), flat[lo:lo + EVAL_CHUNK])
        gaps[lo:lo + EVAL_CHUNK] = _surrogate_gap(
            np.stack([chain[t][0] for t in steps]), flat[lo:lo + EVAL_CHUNK],
            np.stack([chain[t][1] for t in steps]), stack.mu[entries, None])
    j_played, gaps = j_played.reshape(n, horizon), gaps.reshape(n, horizon, n_states)
    inc = gaps.sum(axis=-1)
    j_star = np.array([float(stack.rho[i] @ v_star) for i, (_, _, v_star) in zip(path, chain)])

    return [RunTrace(columns={
        "t": np.arange(1, horizon + 1), "lambda": lam[b], "eta": eta[b],
        "alpha": alpha, "proxy": ema[b], "regret_inc": inc[b],
        "regret_cum": np.cumsum(inc[b]), "regret_rl_inc": j_star - j_played[b],
        "eval_return": j_played[b],
    }, meta={
        "agent": "planner", "pattern": getattr(seq, "pattern", "custom"),
        "seed": getattr(seq, "seed", 0), "eps": eps, "tol": tol, "mu": mu[0],
        "c": cfg.c, "lambda_min": cfg.lambda_min, "lambda_max": cfg.lambda_max,
    }, policies=list(played[b]), oco_gaps=gaps[b], state_alphas=state_alphas)
        for b, cfg in enumerate(cfgs)]


def _choice(p, u: float) -> int:
    """Generator.choice(len(p), p=p) for its uniform u: the count of cdf <= u,
    cdf = p.cumsum(); cdf /= cdf[-1] as choice builds it (0 for a NaN cdf)."""
    cdf = list(accumulate(p))
    last, a = cdf[-1], 0
    while a < len(cdf) and cdf[a] / last <= u:
        a += 1
    return a


def _row_sum(width: int):
    """The sum of a width-entry list with the bits of a (B, A) array's row sum: numpy adds
    fewer than 8 entries left to right, more pairwise, as a 1-D np.add.reduce does."""
    return ((lambda row: reduce(add, row, 0.0)) if width < 8
            else (lambda row: float(np.add.reduce(row))))


def _cached_row(stack, i: int, s: int, a: int) -> tuple:
    """(reward, cdf) of row (s, a) of the stack's entry i, the cdf normalized as
    Generator.choice builds it and made nondecreasing, so that bisect_right(cdf, u) is
    _choice's count for any finite row."""
    cdf = list(accumulate(stack.transitions[i, s, a].tolist()))
    return stack.rewards.item(i, s, a), array("d", accumulate([v / cdf[-1] for v in cdf], max))


def _td_step(q, s, u_act, u_next, alpha, learn_rate, now, log_ties, row_sum) -> tuple:
    """One sampled soft-TD transition for every learner b, on Python floats.

    In state s[b] of now[b] = (stack, entry, row cache or None, gamma), learner b draws
    a ~ softmax(q[b][s] / alpha[b]) with u_act[b] and s' with u_next[b], moves q[b][s][a]
    towards r + gamma alpha[b] LSE(q[b][s'] / alpha[b]) and returns (s', delta) lists,
    with the bits soft_policy, Generator.choice and _row_lse give on (B, A) rows
    (log_ties[n - 1] is np.log(n), row_sum is _row_sum(A)). A non-finite TD error raises."""
    width, shifted = len(q[0][0]), []
    for qb, sb, al in zip(q, s, alpha):
        top = max(qb[sb]) / al  # max(v / al): dividing by al > 0 keeps the order
        shifted += [v / al - top for v in qb[sb]]
    e = np.exp(shifted).tolist()
    moves, shifted = [], []
    for j, (qb, sb, al, (mb, i, rows, g), u, w) in enumerate(zip(q, s, alpha, now, u_act, u_next)):
        tot = row_sum(e[j * width:j * width + width])
        p = [v / tot for v in e[j * width:j * width + width]]
        tot = row_sum(p)  # renormalized, as soft_policy does
        a = _choice([v / tot for v in p], u)
        if rows is None:  # no cache: read the reward and transition row
            r, s_next = mb.rewards.item(i, sb, a), _choice(mb.transitions[i, sb, a].tolist(), w)
        else:  # a row's first visit caches it
            row = rows[sb * width + a]
            if row is None:
                row = rows[sb * width + a] = _cached_row(mb, i, sb, a)
            r, s_next = row[0], bisect_right(row[1], w)
        x = [v / al for v in qb[s_next]]
        top = max(x)  # _row_lse: the entries tied at the max enter as log(ties)
        shifted += [(-math.inf if v == top else v) - top for v in x]
        moves.append((a, r, g, s_next, top, x.count(top)))
    z = np.exp(shifted).tolist()
    log1p = np.log1p([row_sum(z[j * width:j * width + width]) / mv[-1]
                      for j, mv in enumerate(moves)]).tolist()
    delta = []
    for qb, sb, al, (a, r, g, _, top, ties), l1 in zip(q, s, alpha, moves, log1p):
        # a non-finite LSE would take _row_lse's fallback, as non-finite
        d = r + g * (al * (l1 + log_ties[ties - 1] + top)) - qb[sb][a]
        if not math.isfinite(d):
            raise ValueError("TD errors are not finite: the learner diverged")
        qb[sb][a] += learn_rate * d
        delta.append(d)
    return [mv[3] for mv in moves], delta


def _score_snapshots(stack, path, snaps, eval_col) -> None:
    """eval_col[t, b] = J of each (t, b, policy) snapshot of a learner on the plan (stack,
    path), on its entry at step t: one stacked evaluation, which indexes the stack once."""
    steps, learners, pis = zip(*snaps)
    eval_col[steps, learners] = _soft_returns(stack.at([path[t] for t in steps]), np.array(pis))


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

    Learner b's trace is td_train(seqs[b], cfgs[b], ..., seed=seeds[b]) bit
    for bit, whatever shares the run: its generator draws at once every
    uniform of td_train's reset, action and next-state choices, and each step
    is one _td_step for all learners on Python floats, tables as lists, with
    numpy only for one exp over all action rows, one over all LSE rows, one
    log1p and sums of 8 or more entries. The learners on a sequence share its
    _plan and a row cache: once an entry is current two steps in a row, the
    first visit of each (s, a) caches its reward and Generator.choice's cdf,
    which later visits bisect. A new entry drops the cache, and one current
    for a step is read a row at a time, so no table is copied or made lists.
    Eval steps' policies are scored EVAL_CHUNK of one plan at a time in
    stacked solves. All learners share the horizon, the (S, A) shape and the
    knobs.
    """
    if not len(seqs) == len(cfgs) == len(seeds) >= 1:
        raise LengthMismatch("seqs, cfgs and seeds must be nonempty and equally long")
    knobs = (batch_size, eval_every, episode_len)
    if any(isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1 for k in knobs):
        raise ValueError("batch_size, eval_every and episode_len must be ints >= 1")
    if not math.isfinite(learn_rate):
        raise ValueError("learn_rate must be finite")
    plans = {id(seq): _plan(seq) for seq in {id(s): s for s in seqs}.values()}
    runs = [plans[id(seq)] for seq in seqs]  # a spec that learners share is planned once
    if len({len(path) for _, path in runs}) > 1:
        raise LengthMismatch("every learner needs the same horizon")
    if len({stack.rewards.shape[1:] for stack, _ in runs}) > 1:
        raise ShapeMismatch("every MDP needs the same (S, A)")
    (n_states, width), horizon, n_learners = runs[0][0].rewards[0].shape, len(runs[0][1]), len(seqs)
    log_ties, row_sum = np.log(np.arange(1.0, width + 1)).tolist(), _row_sum(width)
    held = dict.fromkeys(plans, (None,) * 4)  # each plan's (stack, entry, row cache or None, gamma)
    draws = np.empty((2 * horizon + math.ceil(horizon / episode_len), n_learners))
    for b, sd in enumerate(seeds):
        draws[:, b] = np.random.default_rng(sd).random(len(draws))
    alpha = [next_lambda(c, ProxyState(), 0.0)[0] for c in cfgs]
    q_rank = [math.ceil(c.quantile_q * batch_size) - 1 for c in cfgs]
    q = [np.zeros((n_states, width)).tolist() for _ in runs]
    proxies = [ProxyState()] * n_learners
    lam_hist, ema_hist, batch = [alpha.copy()], [[0.0] * n_learners], []
    eval_col = np.full((horizon, n_learners), np.nan)
    snaps = {key: [] for key in plans}  # each plan's (step, learner, policy) awaiting evaluation
    # an overflowed table holds an inf until a TD error that is not finite raises
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            for key, (stack, path) in plans.items():  # an entry current 2 steps in a row: a cache
                if held[key][1] != path[t] or held[key][2] is None:
                    cache = [None] * (n_states * width) if t and path[t - 1] == path[t] else None
                    held[key] = (stack, path[t], cache, float(stack.gamma[path[t]]))
                    now = [held[id(seq)] for seq in seqs]
            i = 2 * t + t // episode_len
            if t % episode_len == 0:  # draws[i] resets
                s = [_choice(m.rho[e].tolist(), u) for (m, e, *_), u in zip(now, draws[i].tolist())]
            u_act, u_next = draws[i + 1:i + 3].tolist()
            s, delta = _td_step(q, s, u_act, u_next, alpha, learn_rate, now, log_ties, row_sum)
            batch.append(delta)
            if (t + 1) % batch_size == 0:
                for b, (cfg, errors) in enumerate(zip(cfgs, zip(*batch))):
                    raw = sorted(map(abs, errors))[q_rank[b]]
                    alpha[b], proxies[b] = next_lambda(cfg, proxies[b], raw)
                batch.clear()
                lam_hist.append(alpha.copy())
                ema_hist.append([p.ema_value for p in proxies])
            if (t + 1) % eval_every == 0:
                for b, q_b in enumerate(np.array(q)):
                    snaps[id(seqs[b])].append((t, b, soft_policy(q_b, alpha[b])))
                for key, waiting in snaps.items():
                    while len(waiting) >= EVAL_CHUNK:
                        _score_snapshots(*plans[key], waiting[:EVAL_CHUNK], eval_col)
                        del waiting[:EVAL_CHUNK]
    for key, waiting in snaps.items():
        if waiting:
            _score_snapshots(*plans[key], waiting, eval_col)
    # step t recorded lambda before and the proxy after that step's update
    steps = np.arange(horizon)
    lam_col = np.array(lam_hist, dtype=float)[steps // batch_size]
    proxy_col = np.array(ema_hist)[(steps + 1) // batch_size]

    # the constant columns are read-only broadcasts: no memory per trace
    nan, zero = np.broadcast_to(np.nan, horizon), np.broadcast_to(0.0, horizon)
    return [RunTrace(columns={
        "t": steps + 1, "lambda": lam_col[:, b], "eta": zero, "alpha": nan,
        "proxy": proxy_col[:, b], "regret_inc": zero, "regret_cum": zero,
        "regret_rl_inc": nan, "eval_return": eval_col[:, b],
    }, meta={
        "agent": "td", "pattern": getattr(seq, "pattern", "custom"), "seed": seed,
        "seq_seed": getattr(seq, "seed", 0), "batch_size": batch_size, "eval_every": eval_every,
        "episode_len": episode_len, "learn_rate": learn_rate, "mu": stack.mu[path[0]].item(),
    }) for b, (seq, (stack, path), seed) in enumerate(zip(seqs, runs, seeds))]
