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

import functools
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

EVAL_CHUNK = 32  # entries per stacked evaluation, and planner rounds per block; keeps memory flat


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
    played. So it walks the chain once, computes each schedule's lambda and
    eta columns in one _schedule_columns pass, then steps and scores:
    - the chain: _solved_chain's Q*_t, soft-optimal policy pi*_t and soft values
      V*_t along the _plan (one soft pass per solve, the next solve's first step;
      a reused solve reuses them, reads 0 and drifts 0), each round's reading and
      drift as numbers, and J*_t = rho_t . V*_t;
    - the rounds, EVAL_CHUNK at a time: one mirror step a round on the (B, S, A)
      stack of policies, every row on the gradient -Q*_t(s,.) + mu (1 + log pi_s)
      + lambda_t (1 + log pi_s); then the block's surrogate gaps and J_t of its
      played policies, EVAL_CHUNK (round, schedule) entries per stacked solve on
      the plan's stack. Only one block of played policies is held.
    Trace b is planner_run(seq, cfgs[b], ...) bit for bit.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise LengthMismatch("cfgs must be nonempty")
    stack, path = _plan(seq)
    n_states, n_actions = stack.rewards.shape[1:]
    _check_floor(eps, n_actions)

    chain = list(_solved_chain(stack, path, tol))  # (Q*_t, pi*_t, V*_t)
    mu = stack.mu[path].tolist()  # each step's mu as its MDP holds it
    reading, alpha = [0.0], [0.0]  # 0 at t = 1
    for (q_prev, pi_prev, _), (q_star, pi_star, _), mu_t in zip(chain, chain[1:], mu[1:]):
        reused = q_star is q_prev  # |x - x| = 0: no reading, no drift
        reading.append(0.0 if reused else float(np.abs(q_star - q_prev).max()) / mu_t)
        alpha.append(0.0 if reused else float(np.abs(pi_star - pi_prev).sum(axis=1).max()))
    j_star = np.array([float(stack.rho[i] @ v_star) for i, (_, _, v_star) in zip(path, chain)])
    alpha, horizon, n = np.array(alpha), len(chain), len(cfgs)
    lam, eta, ema = np.empty((3, n, horizon))
    for b, cfg in enumerate(cfgs):
        lam[b], eta[b], proxy = _schedule_columns(cfg, reading, alpha)
        ema[b] = proxy if cfg.mode == "online" else _ema(reading, cfg.ema_beta)

    j_played, inc = np.empty((2, horizon, n))  # round-major, as a block's entries
    block = np.empty((min(EVAL_CHUNK, horizon) + 1, n, n_states, n_actions))
    block[0] = 1.0 / n_actions
    for lo in range(0, horizon, EVAL_CHUNK):
        hi = min(lo + EVAL_CHUNK, horizon)
        for x, x_next, t in zip(block, block[1:], range(lo, hi)):
            if eps == 0.0 and not (x > 0.0).all():
                raise BoundaryIterate("entropy gradient needs all coordinates > 0")
            logp = np.log(x)
            g = -chain[t][0] + mu[t] * (1.0 + logp) + lam[:, t, None, None] * (1.0 + logp)
            if not np.isfinite(g).all():
                raise NonFiniteGradient("gradient contains NaN or infinity")
            _mirror_step(logp, g, eta[:, t, None, None], eps, x_next)
        played = block[:hi - lo]  # (round, schedule, S, A)
        _check_iterates(played, eps)
        q_star = np.stack([q for q, _, _ in chain[lo:hi]])[:, None]  # (round, 1, S, A)
        pi_star = np.stack([pi for _, pi, _ in chain[lo:hi]])[:, None]
        inc[lo:hi] = _surrogate_gap(q_star, played, pi_star,
                                    stack.mu[path[lo:hi], None, None]).sum(axis=-1)
        flat, j_flat = played.reshape(-1, n_states, n_actions), j_played[lo:hi].reshape(-1)
        for k in range(0, len(flat), EVAL_CHUNK):  # entry k: round lo + k // n, schedule k % n
            entries = [path[lo + e // n] for e in range(k, min(k + EVAL_CHUNK, len(flat)))]
            j_flat[k:k + EVAL_CHUNK] = _soft_returns(stack.at(entries), flat[k:k + EVAL_CHUNK])
        block[0] = block[hi - lo]

    return [RunTrace(columns={
        "t": np.arange(1, horizon + 1), "lambda": lam[b], "eta": eta[b],
        "alpha": alpha, "proxy": ema[b], "regret_inc": inc[:, b],
        "regret_cum": np.cumsum(inc[:, b]), "regret_rl_inc": j_star - j_played[:, b],
        "eval_return": j_played[:, b],
    }, meta={
        "agent": "planner", "pattern": getattr(seq, "pattern", "custom"),
        "seed": getattr(seq, "seed", 0), "eps": eps, "tol": tol, "mu": mu[0],
        "c": cfg.c, "lambda_min": cfg.lambda_min, "lambda_max": cfg.lambda_max,
    }) for b, cfg in enumerate(cfgs)]


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
    """One sampled soft-TD transition for every lane b, on Python floats.

    In state s[b] of now[b] = (stack, entry, row cache or None, gamma), lane b draws
    a ~ softmax(q[b][s] / alpha[b]) with u_act[b] and s' with u_next[b], moves q[b][s][a]
    towards r + gamma alpha[b] LSE(q[b][s'] / alpha[b]) and returns (s', delta) lists,
    with the bits soft_policy, Generator.choice and _row_lse give on (B, A) rows
    (log_ties[n - 1] is np.log(n), row_sum is _row_sum(A)). A self-loop s' = s with a finite
    row max reuses its action row's exponentials, the max's ties (shifted to exactly 0.0) set
    to 0.0; only other lanes take a second np.exp. A non-finite TD error raises."""
    width, shifted, tops = len(q[0][0]), [], []
    for qb, sb, al in zip(q, s, alpha):
        tops.append(max(qb[sb]) / al)  # max(v / al): dividing by al > 0 keeps the order
        shifted += [v / al - tops[-1] for v in qb[sb]]
    e = np.exp(shifted).tolist()
    moves, lse, rest = [], [], []  # lse[j]: lane j's LSE exponentials, or their offset in rest
    for j, (qb, sb, al, (mb, i, rows, g), u, w) in enumerate(zip(q, s, alpha, now, u_act, u_next)):
        row_e = e[j * width:j * width + width]
        tot = row_sum(row_e)
        p = [v / tot for v in row_e]
        tot = row_sum(p)  # renormalized, as soft_policy does
        a = _choice([v / tot for v in p], u)
        if rows is None:  # no cache: read the reward and transition row
            r, s_next = mb.rewards.item(i, sb, a), _choice(mb.transitions[i, sb, a].tolist(), w)
        else:  # a row's first visit caches it
            row = rows[sb * width + a]
            if row is None:
                row = rows[sb * width + a] = _cached_row(mb, i, sb, a)
            r, s_next = row[0], bisect_right(row[1], w)
        if s_next == sb and math.isfinite(tops[j]):  # a self-loop backs up the row it played
            own = shifted[j * width:j * width + width]
            lse.append([0.0 if v == 0.0 else x for v, x in zip(own, row_e)])
            moves.append((a, r, g, s_next, tops[j], own.count(0.0)))
            continue
        x = [v / al for v in qb[s_next]]
        top = max(x)  # _row_lse: the entries tied at the max enter as log(ties)
        lse.append(len(rest))
        rest += [(-math.inf if v == top else v) - top for v in x]
        moves.append((a, r, g, s_next, top, x.count(top)))
    z = np.exp(rest).tolist() if rest else []
    log1p = np.log1p([row_sum(z[k:k + width] if isinstance(k, int) else k) / mv[-1]
                      for k, mv in zip(lse, moves)]).tolist()
    delta = []
    for qb, sb, al, (a, r, g, _, top, ties), l1 in zip(q, s, alpha, moves, log1p):
        # a non-finite LSE would take _row_lse's fallback, as non-finite
        d = r + g * (al * (l1 + log_ties[ties - 1] + top)) - qb[sb][a]
        if not math.isfinite(d):
            raise ValueError("TD errors are not finite: the learner diverged")
        qb[sb][a] += learn_rate * d
        delta.append(d)
    return [mv[3] for mv in moves], delta


def _shared_steps(plan_a, plan_b) -> int:
    """The count of leading steps on which two plans' entries are equal byte for byte in
    every _MdpStack field (so -0.0 and 0.0 differ); each distinct entry pair is read once."""
    pairs = [] if plan_a is plan_b else list(zip(plan_a[1], plan_b[1]))
    for i, j in dict.fromkeys(pairs):  # in order of first step
        if any(x.tobytes() != y.tobytes() for x, y in zip(plan_a[0].at(i), plan_b[0].at(j))):
            return pairs.index((i, j))
    return len(plan_a[1])


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

    Learner b's trace is td_train(seqs[b], cfgs[b], ..., seed=seeds[b]) bit for bit,
    whatever shares the run: its generator draws every uniform of td_train's resets,
    actions and next states at once. Learners step in lanes: b shares an earlier
    learner's lane while their cfgs, uniforms and plans' entries (byte for byte) are
    equal, and forks with copies of the lane's state at the first step they differ.
    A step is one _td_step for all lanes on Python floats, tables as lists. The
    learners on a sequence share its _plan and a row cache: once an entry is current
    two steps in a row, the first visit of each (s, a) caches its reward and
    Generator.choice's cdf for later visits to bisect. Eval steps score each learner's
    lane policy on its own plan, EVAL_CHUNK of a plan at a time in stacked solves.
    All learners share the horizon, the (S, A) shape and the knobs.
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
    draws = np.empty((2 * horizon + math.ceil(horizon / episode_len), n_learners))
    for b, sd in enumerate(seeds):
        draws[:, b] = np.random.default_rng(sd).random(len(draws))
    # learner b joins the lane of the first earlier leader with an equal cfg and equal
    # uniforms whose plan's entries equal its own for k >= 1 steps; at k < T it forks
    shared = functools.cache(lambda key_a, key_b: _shared_steps(plans[key_a], plans[key_b]))
    leaders, lane_of, forks = [], [], []
    for b, cfg in enumerate(cfgs):
        joins = [(shared(id(seqs[a]), id(seqs[b])), l) for l, a in enumerate(leaders)
                 if cfgs[a] == cfg and np.array_equal(draws[:, a], draws[:, b])]
        k, l = next(((k, l) for k, l in joins if k), (0, len(leaders)))
        lane_of.append(l)
        leaders += [] if k else [b]
        forks += [(k, b)] if 0 < k < horizon else []
    forks.sort(reverse=True)  # popped in order of step, then learner
    lead = leaders + [b for _, b in reversed(forks)]  # lane l reads learner lead[l]'s plan
    draws = draws[:, lead]  # a column per lane, in the order the lanes start
    held = dict.fromkeys(plans, (None,) * 4)  # each plan's (stack, entry, row cache or None, gamma)
    alpha = [next_lambda(cfgs[b], ProxyState(), 0.0)[0] for b in leaders]
    q_rank = [math.ceil(c.quantile_q * batch_size) - 1 for c in cfgs]
    q = [np.zeros((n_states, width)).tolist() for _ in leaders]
    proxies, now = [ProxyState()] * len(leaders), None
    lam_hist, ema_hist, batch = [[alpha[l] for l in lane_of]], [[0.0] * n_learners], []
    eval_col = np.full((horizon, n_learners), np.nan)
    snaps = {key: [] for key in plans}  # each plan's (step, learner, policy) awaiting evaluation
    # an overflowed table holds an inf until a TD error that is not finite raises
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            while forks and forks[-1][0] == t:  # learner b forks with copies of its lane's state
                b = forks.pop()[1]
                l, lane_of[b], now = lane_of[b], len(q), None
                q.append([row.copy() for row in q[l]])
                for col in (s, alpha, proxies, *batch):
                    col.append(col[l])
            for key, (stack, path) in plans.items():  # an entry current 2 steps in a row: a cache
                if held[key][1] != path[t] or held[key][2] is None:
                    cache = [None] * (n_states * width) if t and path[t - 1] == path[t] else None
                    held[key], now = (stack, path[t], cache, float(stack.gamma[path[t]])), None
            if now is None:
                now = [held[id(seqs[b])] for b in lead[:len(q)]]
            i = 2 * t + t // episode_len
            reset, u_act, u_next = draws[i:i + 3, :len(q)].tolist()
            if t % episode_len == 0:  # draws[i] resets
                s = [_choice(m.rho[e].tolist(), u) for (m, e, *_), u in zip(now, reset)]
            s, delta = _td_step(q, s, u_act, u_next, alpha, learn_rate, now, log_ties, row_sum)
            batch.append(delta)
            if (t + 1) % batch_size == 0:
                for l, (b, errors) in enumerate(zip(lead, zip(*batch))):
                    raw = sorted(map(abs, errors))[q_rank[b]]
                    alpha[l], proxies[l] = next_lambda(cfgs[b], proxies[l], raw)
                batch.clear()
                lam_hist.append([alpha[l] for l in lane_of])
                ema_hist.append([proxies[l].ema_value for l in lane_of])
            if (t + 1) % eval_every == 0:
                pis = [soft_policy(q_l, al) for q_l, al in zip(np.array(q), alpha)]
                for b, l in enumerate(lane_of):
                    snaps[id(seqs[b])].append((t, b, pis[l]))
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
