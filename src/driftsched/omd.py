"""Entropy mirror descent on the simplex with dynamic-regret accounting.

The update is multiplicative: x_{t+1,i} ∝ x_{t,i} exp(-eta_t g_i),
renormalized and floored. Losses are linear (a gradient per round) with
a time-varying entropy regularizer lambda_t added through the gradient,
and step sizes follow the monotone envelope eta_t = max(eta_{t-1},
c * lambda_t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryIterate,
    InvalidEpsilon,
    LengthMismatch,
    MissingScheduleMetadata,
    NonFiniteGradient,
    ShapeMismatch,
    SupportMismatch,
)
from .scheduler import ScheduleConfig, _schedule_columns
from .simplex import SUM_TOL, _truncated, as_probs, kl_div
from .trace import RunTrace

CHUNK = 64  # rounds of gradient and comparator rows a lockstep block reads at a time


def _mirror_step(logp: np.ndarray, g: np.ndarray, eta, eps, out: np.ndarray,
                 ks=None) -> np.ndarray:
    """Row-wise multiplicative-weights step on (..., K) arrays, written into out.

    logits = logp - eta * g, minus the row max, exp, divided by the row sum
    (traces and reports depend on this order bit for bit); g holds the
    regularized gradient and is overwritten. Rows below the floor eps go
    through truncate's row kernel, written back through out (callers check the
    iterates). With ks, out is a (B, W) block whose row b is a stream of
    K = ks[b] <= W, zero past K, and eps a (B, W) array holding each row's
    floor on its real entries and -inf on its pads. The caller makes g +inf on
    the pads (logp is -inf there), so their logits are -inf: they stay 0 and
    only append +0.0 to the row sum, which keeps the unpadded row's bits at
    W = 8 floor(K/8) + 7 (numpy adds fewer than 8 entries left to right, more
    with 8 accumulators and then a left-to-right tail).
    """
    np.multiply(eta, g, g)
    np.subtract(logp, g, g)
    np.subtract(g, np.maximum.reduce(g, -1, keepdims=True), g)
    np.exp(g, g)
    np.divide(g, np.add.reduce(g, -1, keepdims=True), out)
    if ks is None:  # one floor for every row
        if eps > 0.0 and np.minimum.reduce(out, None) < eps:
            for i in map(tuple, np.argwhere(np.minimum.reduce(out, -1) < eps)):
                out[i] = _truncated(out[i].tolist(), float(eps))
    elif (low := out < eps).any():
        for b in np.flatnonzero(low.any(axis=-1)).tolist():
            out[b, :ks[b]] = _truncated(out[b, :ks[b]].tolist(), float(eps[b, 0]))
    return out


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[..., i, :] @ b[..., i, :] for every row, as one stacked matmul.

    Each entry has the same bits as the row's own 1-D dot (einsum's
    summation order differs in the last bit).
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _check_floor(eps: float, k: int) -> None:
    """The simplex floor must lie in [0, 1/K]."""
    if not 0.0 <= eps <= 1.0 / k + SUM_TOL:
        raise InvalidEpsilon(f"floor {eps} outside [0, 1/{k}]")


def _check_iterates(x: np.ndarray, eps, what="an iterate", nan=NonFiniteGradient) -> None:
    """Every row of x sums to 1 within SUM_TOL and sits at or above the floor eps, a
    number or an array that is -inf on zero pads. A NaN row raises nan: in an iterate
    it means that eta * g overflowed."""
    sums = x.sum(axis=-1)
    if np.isnan(sums).any():
        raise nan(f"{what} has a NaN coordinate")
    if not (np.abs(sums - 1.0) <= SUM_TOL).all():
        raise ValueError(f"{what}'s probabilities do not sum to 1")
    if (below := x < eps - SUM_TOL).any():
        raise ValueError(f"{what} has a coordinate below floor "
                         f"{np.broadcast_to(eps, x.shape)[below][0]}")


@dataclass(frozen=True)
class ExplicitConstants:
    """Constants of the per-round trade-off bound C0 + sum(C1 a/l + C2 l)."""

    c0: float
    c1: float
    c2: float

    @staticmethod
    def derive(cfg: ScheduleConfig, g_bound: float, k: int, eps: float,
               lambda1: float) -> "ExplicitConstants":
        """Concrete constants from the run parameters.

        Uses the entropy-gradient bound G_psi = 1 + |log eps| on the
        floored simplex, so eps must be positive. The drift coefficient
        C1 carries the conservative factor 2 G_psi / c (a tighter
        G_psi / c variant exists but the larger one is always safe).
        """
        if eps <= 0.0:
            raise ValueError("constants need a positive simplex floor")
        g_psi = 1.0 + abs(math.log(eps))
        c1 = 2.0 * g_psi / cfg.c
        c2 = 0.5 * cfg.c * (g_bound + cfg.lambda_max * g_psi) ** 2 + 2.0 * math.log(k)
        c0 = math.log(k) / (cfg.c * cfg.lambda_min) + c2 * lambda1
        return ExplicitConstants(c0=c0, c1=c1, c2=c2)

    @staticmethod
    def derive_from_trace(trace: RunTrace) -> "ExplicitConstants":
        m = trace.meta
        cfg = ScheduleConfig(
            c1=m.get("cfg_c1", 1.0), c2=m.get("cfg_c2", 1.0), c=m["c"],
            lambda_min=m["lambda_min"], lambda_max=m["lambda_max"],
            mode="fixed", fixed_value=m["lambda_min"],
        )
        return ExplicitConstants.derive(
            cfg, g_bound=m["g_bound"], k=int(m["k"]), eps=m["eps"],
            lambda1=m["lambda1"],
        )


def run_dynamic(grads, comparators, cfg: ScheduleConfig, eps: float) -> RunTrace:
    """Run mirror descent against a drifting comparator sequence.

    grads is the (T, K) array of loss gradients; comparators holds T
    points of the K-simplex; cfg is the schedule. This is the one-stream
    case of run_dynamic_many, which describes a round.
    """
    grads = np.ascontiguousarray(grads, dtype=float)
    us = np.array([as_probs(u) for u in comparators], dtype=float)
    return run_dynamic_many(grads[None], us[None], [cfg], eps)[0]


def run_dynamic_many(grads, comparators, cfgs, eps: float) -> list[RunTrace]:
    """Run B mirror-descent streams of one shape in lockstep.

    grads and comparators are (B, T, K): stream b has loss gradients
    grads[b] and comparators (points of the K-simplex) comparators[b].
    cfgs holds the B schedules; every stream shares the floor eps and
    starts at the uniform point. Per round: drift alpha_t = ||u_t -
    u_{t-1}||_1 (zero at t=1) is the schedule's proxy reading and true
    drift, the step size follows the monotone envelope, the regret
    increment <g_t, x_t> - <g_t, u_t> is recorded, and the iterate is
    updated on the regularized gradient. Each trace equals the one its stream gives alone, bit for
    bit. The drift column is known before round 1, so each stream's
    schedule is one array pass (scheduler._schedule_columns, which
    equals iterated next_lambda bit for bit). The uniform start keeps
    the initial Bregman distance to any comparator at most log K; it lies
    on every floor eps <= 1/K, so truncation would leave its bits.
    """
    grads = np.asarray(grads, dtype=float)
    us = np.asarray(comparators, dtype=float)
    n = len(cfgs)
    if not n or len(grads) != n or len(us) != n:
        raise LengthMismatch(f"{len(grads)} gradient streams, {len(us)} "
                             f"comparator streams and {n} schedules")
    horizon = grads.shape[1] if grads.ndim > 1 else 0
    if us.ndim < 2 or horizon != us.shape[1] or not horizon:
        raise LengthMismatch(f"{horizon} losses vs {us.shape[1:2]} comparators")
    if grads.ndim != 3 or us.shape != grads.shape:
        raise ShapeMismatch(f"gradients {grads.shape}, comparators {us.shape}")
    if not np.isfinite(grads).all():
        raise NonFiniteGradient("gradient contains NaN or infinity")
    k = grads.shape[2]
    _check_floor(eps, k)
    _check_iterates(us, 0.0, "a comparator", ValueError)

    # the schedule sees only the comparator drift, known before round 1
    alpha = np.zeros((n, horizon))
    for b in range(n):
        alpha[b, 1:] = np.abs(np.diff(us[b], axis=0)).sum(axis=1)
    return _run_lockstep(lambda t, c: (grads[:, t:t + c], us[:, t:t + c]), alpha, cfgs, eps,
                         np.full((n, k), 1.0 / k), np.full(n, k),
                         [np.abs(g).max() for g in grads])


def _run_lockstep(rows, alpha, cfgs, eps, start, ks, g_bounds, horizons=None) -> list[RunTrace]:
    """run_dynamic_many's traces, for a (B, W) block of streams of K = ks[b] <= W.

    Stream b is zero-padded to the width W of its start row start[b]
    (_mirror_step describes the padded step), has floor eps[b] (or eps) and
    runs horizons[b] rounds (default: all T of alpha, the (B, T) drift column,
    which the schedule reads before round 1). Rows come in order of falling
    horizon: rows(t, c) returns the (B', c, W) gradients and comparators of
    rounds t + 1 .. t + c of the B' streams live there, CHUNK rounds at a time
    and no chunk across a horizon. g_bounds are the streams' max |g|.
    """
    n, horizon = alpha.shape
    horizons = np.full(n, horizon) if horizons is None else np.asarray(horizons)
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (n,))
    lam, eta, proxy = np.empty((3, n, horizon))
    for b, (cfg, h) in enumerate(zip(cfgs, horizons)):
        lam[b, :h], eta[b, :h], proxy[b, :h] = _schedule_columns(cfg, alpha[b, :h])
    inc, firsts = _lockstep_rounds(rows, lam, eta, eps, start, ks, horizons)

    traces = []
    for b, (cfg, h) in enumerate(zip(cfgs, horizons)):
        k = int(ks[b])
        try:
            d_psi_start = kl_div(firsts[b, :k], start[b, :k])
        except SupportMismatch:
            d_psi_start = math.inf
        columns = {
            "t": np.arange(1, h + 1),
            "lambda": lam[b, :h],
            "eta": eta[b, :h],
            "alpha": alpha[b, :h],
            "proxy": proxy[b, :h],
            "regret_inc": inc[b, :h],
            "regret_cum": np.cumsum(inc[b, :h]),
        }
        meta = {
            "k": k,
            "eps": float(eps[b]),
            "g_bound": float(g_bounds[b]),
            "c": cfg.c,
            "lambda_min": cfg.lambda_min,
            "lambda_max": cfg.lambda_max,
            "lambda1": float(lam[b, 0]),
            "cfg_c1": cfg.c1,
            "cfg_c2": cfg.c2,
            "d_psi_start": d_psi_start,  # divergence from x_1 to the first comparator
        }
        traces.append(RunTrace(columns=columns, meta=meta))
    return traces


def _lockstep_rounds(rows, lam, eta, eps, start, ks, horizons):
    """The (B, T) regret increments of _run_lockstep's rounds, and each
    stream's first comparator. A chunk holds its iterates round-major, so that
    a round's (B', W) rows are contiguous, and spreads its rounds' lambda and
    eta over them once, with lambda -1 and eta 1 on the pads: log 0 there
    makes the entropy gradient +inf and so the pads' logits -inf. Only one
    chunk of iterates is held.
    """
    (n, horizon), width = lam.shape, start.shape[1]
    real = np.arange(width) < ks[:, None]
    floor = np.where(real, eps[:, None], -np.inf)  # each row's eps; pads never fall below
    bare = not eps.all()  # a stream without a floor needs every iterate interior
    block = np.empty((min(CHUNK, horizon) + 1, n, width))
    block[0] = start
    spread = np.empty((2, min(CHUNK, horizon), n, width))  # a chunk's lambda and eta
    spread[0][:, ~real], spread[1][:, ~real] = -1.0, 1.0
    inc = np.empty((n, horizon))
    logp, g = np.empty((2, n, width))
    t = 0
    with np.errstate(all="ignore"):  # NaN from an overflowed eta * g raises below
        while t < horizon:
            live = np.count_nonzero(horizons > t)
            c = min(CHUNK, int(horizons[live - 1]) - t)
            grads, us = rows(t, c)
            if not t:
                firsts = us[:, 0].copy()
            xc, (lam_c, eta_c) = block[:c + 1, :live], spread[:, :c, :live]
            lp, gl, fl, kl, rl = logp[:live], g[:live], floor[:live], ks[:live], real[:live]
            np.copyto(lam_c, lam[:live, t:t + c].T[..., None], where=rl)
            np.copyto(eta_c, eta[:live, t:t + c].T[..., None], where=rl)
            for x, x_next, grad, lam_t, eta_t in zip(xc, xc[1:], grads.swapaxes(0, 1),
                                                     lam_c, eta_c):
                if bare and not np.minimum.reduce(x, None, initial=np.inf, where=rl) > 0.0:
                    raise BoundaryIterate("entropy gradient needs all coordinates > 0")
                np.log(x, lp)
                np.multiply(lam_t, np.add(lp, 1.0, gl), gl)
                _mirror_step(lp, np.add(grad, gl, gl), eta_t, fl, x_next, kl)
            _check_iterates(xc, fl)
            inc[:live, t:t + c] = _row_dots(grads, xc[:c].swapaxes(0, 1)) - _row_dots(grads, us)
            block[0, :live] = block[c, :live]
            t += c
    return inc, firsts


def bound_rhs(trace: RunTrace, consts: ExplicitConstants) -> float:
    """Right-hand side C0 + sum_{t>=2} (C1 alpha_t/lambda_t + C2 lambda_t).

    Rounds with alpha_t = 0 contribute only the C2 term regardless of
    lambda_t (the 0/0 case reads as 0).
    """
    for name in ("lambda", "alpha"):
        if not trace.has(name):
            raise MissingScheduleMetadata(f"trace lacks column {name!r}")
    lam = trace.column("lambda")[1:]
    alpha = trace.column("alpha")[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        drift_terms = np.where(alpha > 0.0, consts.c1 * alpha / lam, 0.0)
    return float(consts.c0 + drift_terms.sum() + consts.c2 * lam.sum())


def proxy_bound_rhs(trace: RunTrace, consts: ExplicitConstants, k: int) -> float:
    """Online-schedule bound C0 log K + 4 sqrt(C1 C2 T A_hat_T)."""
    if not trace.has("proxy"):
        raise MissingScheduleMetadata("trace lacks column 'proxy'")
    a_hat_total = float(trace.column("proxy").sum())
    horizon = len(trace)
    return float(
        consts.c0 * math.log(k)
        + 4.0 * math.sqrt(consts.c1 * consts.c2 * horizon * a_hat_total)
    )
