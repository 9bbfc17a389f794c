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
from .simplex import SUM_TOL, _truncate_rows, as_probs, kl_div
from .trace import RunTrace

CHUNK = 64  # rounds of gradient and comparator rows a lockstep block reads at a time


def _mirror_step(logp: np.ndarray, g: np.ndarray, eta, eps: float, out: np.ndarray,
                 pads=None) -> np.ndarray:
    """Row-wise multiplicative-weights step on (..., K) arrays, written into out.

    logits = logp - eta * g, minus the row max, exp, divided by the row sum
    (traces and reports depend on this order bit for bit); g holds the
    regularized gradient and is overwritten. With eps > 0 the rows below the
    floor go through truncate's row kernel in one call, indexed through out
    itself, so a strided out keeps them (callers check the iterates).

    pads = (pad, real, ks) steps a (B, W) block whose row b is a stream of
    K = ks[b] <= W, zero past K (pad masks those entries, real the others).
    Their logits are set to -inf, so they stay 0 and only append +0.0 to
    the row sum, which keeps the unpadded row's bits at W = 8 floor(K/8) + 7
    (numpy adds fewer than 8 entries left to right, more with 8 accumulators
    and then a left-to-right tail). The floor reads real entries only and
    truncates one K at a time.
    """
    np.multiply(eta, g, g)
    np.subtract(logp, g, g)
    pad, real, ks = pads or (None, True, None)
    if pad is not None:
        np.copyto(g, -np.inf, where=pad)
    np.subtract(g, np.maximum.reduce(g, -1, keepdims=True), g)
    np.exp(g, g)
    np.divide(g, np.add.reduce(g, -1, keepdims=True), out)
    if eps > 0.0 and np.minimum.reduce(out, None, initial=np.inf, where=real) < eps:
        low = np.minimum.reduce(out, -1, initial=np.inf, where=real) < eps
        if ks is None:
            out[low] = _truncate_rows(out[low], np.full(np.count_nonzero(low), float(eps)))
        else:
            for k in set(ks[low].tolist()):
                rows = np.flatnonzero(low & (ks == k))
                out[rows, :k] = _truncate_rows(out[rows, :k], np.full(len(rows), float(eps)))
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


def _check_iterates(x: np.ndarray, eps: float, real=True) -> None:
    """Every row of x sums to 1 within SUM_TOL and sits at or above the floor
    on its real entries (zero pads add nothing to the sum)."""
    if (np.abs(x.sum(axis=-1) - 1.0) > SUM_TOL).any():
        raise ValueError("an iterate's probabilities do not sum to 1")
    if ((x < eps - SUM_TOL) & real).any():
        raise ValueError(f"an iterate has a coordinate below floor {eps}")


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

    # the schedule sees only the comparator drift, known before round 1
    alpha = np.zeros((n, horizon))
    for b in range(n):
        alpha[b, 1:] = np.abs(np.diff(us[b], axis=0)).sum(axis=1)
    return _run_lockstep(lambda t, c: (grads[:, t:t + c], us[:, t:t + c]), alpha, cfgs, eps,
                         np.full((n, k), 1.0 / k), np.full(n, k),
                         [np.abs(g).max() for g in grads], np.empty((n, horizon + 1, k)))


def _run_lockstep(rows, alpha, cfgs, eps, start, ks, g_bounds, xs=None) -> list[RunTrace]:
    """run_dynamic_many's traces, for a (B, W) block of streams of K = ks[b] <= W.

    Stream b is zero-padded to the width W of its start row start[b]
    (_mirror_step describes the padded step). rows(t, c) returns the (B, c, W)
    gradients and comparators of rounds t + 1 .. t + c; _lockstep_rounds
    reads them CHUNK rounds at a time. alpha is the (B, T) drift column, which
    the schedule reads before round 1, and g_bounds the streams' max |g|.
    With xs, a (B, T + 1, W) array, each trace carries its iterates.
    """
    n, horizon = alpha.shape
    lam, eta, proxy = np.empty((3, n, horizon))
    for b, cfg in enumerate(cfgs):
        lam[b], eta[b], proxy[b] = _schedule_columns(cfg, alpha[b])
    inc, firsts = _lockstep_rounds(rows, lam, eta, eps, start, ks, xs)

    traces = []
    for b, cfg in enumerate(cfgs):
        k = int(ks[b])
        try:
            d_psi_start = kl_div(firsts[b, :k], start[b, :k])
        except SupportMismatch:
            d_psi_start = math.inf
        columns = {
            "t": np.arange(1, horizon + 1),
            "lambda": lam[b],
            "eta": eta[b],
            "alpha": alpha[b],
            "proxy": proxy[b],
            "regret_inc": inc[b],
            "regret_cum": np.cumsum(inc[b]),
        }
        meta = {
            "k": k,
            "eps": eps,
            "g_bound": float(g_bounds[b]),
            "c": cfg.c,
            "lambda_min": cfg.lambda_min,
            "lambda_max": cfg.lambda_max,
            "lambda1": float(lam[b, 0]),
            "cfg_c1": cfg.c1,
            "cfg_c2": cfg.c2,
            "d_psi_start": d_psi_start,  # divergence from x_1 to the first comparator
        }
        iterates = None if xs is None else xs[b, :horizon, :k]
        traces.append(RunTrace(columns=columns, meta=meta, iterates=iterates))
    return traces


def _lockstep_rounds(rows, lam, eta, eps, start, ks, xs):
    """The (B, T) regret increments of _run_lockstep's rounds, and each
    stream's first comparator.

    Rows are read CHUNK rounds at a time, and only one chunk of iterates is
    held unless xs keeps them all, so a block needs no (B, T, W) array.
    """
    n, horizon = lam.shape
    width = start.shape[1]
    real = np.arange(width) < ks[:, None]
    pads = None if real.all() else (~real, real, ks)
    where = real if pads else True  # the real entries of a round's (B, W) rows
    block = np.empty((n, min(CHUNK, horizon) + 1, width)) if xs is None else xs
    block[:, 0] = start
    inc = np.empty((n, horizon))
    # a round steps views of round t's (B, W) rows on two buffers, x_{t+1} straight into
    # the block; pads make -inf logs and NaN logits, which _mirror_step sets back to -inf
    logp, g = np.empty((2, n, width))
    lam_rows, eta_rows = lam.T[..., None], eta.T[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(0, horizon, CHUNK):
            grads, us = rows(t, min(CHUNK, horizon - t))
            c = grads.shape[1]
            xc = xs[:, t:t + c + 1] if xs is not None else block[:, :c + 1]
            if not t:
                firsts = us[:, 0].copy()
            steps = xc.swapaxes(0, 1)
            for x, x_next, grad, lam_t, eta_t in zip(steps, steps[1:], grads.swapaxes(0, 1),
                                                     lam_rows[t:t + c], eta_rows[t:t + c]):
                if eps == 0.0 and not np.minimum.reduce(x, None, initial=np.inf,
                                                        where=where) > 0.0:
                    raise BoundaryIterate("entropy gradient needs all coordinates > 0")
                np.log(x, logp)
                np.multiply(lam_t, np.add(logp, 1.0, g), g)
                _mirror_step(logp, np.add(grad, g, g), eta_t, eps, x_next, pads)
            _check_iterates(xc, eps, real[:, None])
            inc[:, t:t + c] = _row_dots(grads, xc[:, :c]) - _row_dots(grads, us)
            if xs is None:
                block[:, 0] = block[:, c]
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
