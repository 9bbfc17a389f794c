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
from .simplex import SUM_TOL, SimplexVec, as_probs, kl_div, truncate
from .trace import RunTrace


def _mirror_step(logp: np.ndarray, g: np.ndarray, eta, eps: float) -> np.ndarray:
    """Row-wise multiplicative-weights step on (..., K) arrays.

    logits = logp - eta * g, minus the row max, exp, divided by the row
    sum (traces and reports depend on this order bit for bit); with
    eps > 0 only rows below the floor go through truncate. g includes
    the regularizer; eta is one step size or a (..., 1) column of them.
    """
    logits = logp - eta * g
    logits -= logits.max(axis=-1, keepdims=True)
    w = np.exp(logits)
    x = w / w.sum(axis=-1, keepdims=True)
    if eps > 0.0 and (x < eps).any():
        rows = x.reshape(-1, x.shape[-1])  # a view: writes land in x
        for i in np.flatnonzero((rows < eps).any(axis=1)):
            rows[i] = truncate(rows[i], eps).probs
    return x


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


def _check_iterates(x: np.ndarray, eps: float) -> None:
    """Every row of x sums to 1 within SUM_TOL and sits at or above the floor."""
    if (np.abs(x.sum(axis=-1) - 1.0) > SUM_TOL).any():
        raise ValueError("an iterate's probabilities do not sum to 1")
    if (x < eps - SUM_TOL).any():
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


def run_dynamic(grads, comparators, cfg: ScheduleConfig, eps: float,
                x0: SimplexVec | None = None) -> RunTrace:
    """Run mirror descent against a drifting comparator sequence.

    grads is the (T, K) array of loss gradients; comparators holds T
    points of the K-simplex; cfg is the schedule. This is the one-stream
    case of run_dynamic_many, which describes a round.
    """
    grads = np.ascontiguousarray(grads, dtype=float)
    us = np.array([as_probs(u) for u in comparators], dtype=float)
    return run_dynamic_many(grads[None], us[None], [cfg], eps, x0)[0]


def run_dynamic_many(grads, comparators, cfgs, eps: float,
                     x0: SimplexVec | None = None) -> list[RunTrace]:
    """Run B mirror-descent streams of one shape in lockstep.

    grads and comparators are (B, T, K): stream b has loss gradients
    grads[b] and comparators (points of the K-simplex) comparators[b].
    cfgs holds the B schedules; every stream shares the floor eps and
    the start x0. Per round: drift alpha_t = ||u_t - u_{t-1}||_1 (zero
    at t=1) is the schedule's proxy reading and true drift, the step size
    follows the monotone envelope, the regret increment <g_t, x_t> -
    <g_t, u_t> is recorded, and the iterate is updated on the regularized
    gradient. Each trace equals the one its stream gives alone, bit for
    bit. The drift column is known before round 1, so each stream's
    schedule is one array pass (scheduler._schedule_columns, which
    equals iterated next_lambda bit for bit).

    The default start is uniform, which keeps the initial Bregman
    distance to any comparator at most log K.
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
    if x0 is None:
        x0 = SimplexVec.uniform(k)
    start = truncate(x0, eps).probs if eps > 0.0 else as_probs(x0)
    if start.shape != (k,):
        raise ShapeMismatch(f"start point {start.shape}, want {(k,)}")

    # the schedule sees only the comparator drift, known before round 1
    alpha = np.zeros((n, horizon))
    lam, eta, proxy = np.empty((3, n, horizon))
    for b, cfg in enumerate(cfgs):
        alpha[b, 1:] = np.abs(np.diff(us[b], axis=0)).sum(axis=1)
        lam[b], eta[b], ema = _schedule_columns(cfg, alpha[b])
        proxy[b] = ema if cfg.mode == "online" else alpha[b]

    xs = np.empty((n, horizon + 1, k))
    xs[:, 0] = start
    for t in range(horizon):
        x = xs[:, t]
        if eps == 0.0 and not (x > 0.0).all():
            raise BoundaryIterate("entropy gradient needs all coordinates > 0")
        logp = np.log(x)
        xs[:, t + 1] = _mirror_step(logp, grads[:, t] + lam[:, t, None] * (1.0 + logp),
                                    eta[:, t, None], eps)
    _check_iterates(xs, eps)
    inc = _row_dots(grads, xs[:, :horizon]) - _row_dots(grads, us)

    traces = []
    for b, cfg in enumerate(cfgs):
        try:
            d_psi_start = kl_div(us[b, 0], start)
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
            "g_bound": float(np.abs(grads[b]).max()),
            "c": cfg.c,
            "lambda_min": cfg.lambda_min,
            "lambda_max": cfg.lambda_max,
            "lambda1": float(lam[b, 0]),
            "cfg_c1": cfg.c1,
            "cfg_c2": cfg.c2,
            "d_psi_start": d_psi_start,  # divergence from x_1 to the first comparator
        }
        traces.append(RunTrace(columns=columns, meta=meta, iterates=xs[b, :horizon]))
    return traces


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
