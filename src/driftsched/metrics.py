"""Evaluation metrics over return-versus-steps curves.

Area under the curve, the drop-area ratio of a drifting run against its
steady counterpart, and normalized recovery time after abrupt changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoPreWindow, TooShort, ZeroBaseline


@dataclass(frozen=True)
class EvalCurve:
    """Returns sampled at strictly increasing environment steps."""

    steps: np.ndarray
    returns: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.steps, dtype=float)
        r = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "steps", s)
        object.__setattr__(self, "returns", r)
        if s.shape != r.shape or s.ndim != 1:
            raise ValueError("steps and returns must be equal-length vectors")
        if s.size >= 2 and (np.diff(s) <= 0).any():
            raise ValueError("steps must be strictly increasing")

    @staticmethod
    def from_trace(trace) -> "EvalCurve":
        """Extract the evaluated points of a learner trace."""
        t = trace.column("t")
        r = trace.column("eval_return")
        mask = ~np.isnan(r)
        return EvalCurve(steps=t[mask], returns=r[mask])


def auc(curve: EvalCurve) -> float:
    """Trapezoidal area under the curve over its step span."""
    if len(curve.steps) < 2:
        raise TooShort("need at least two evaluation points")
    return float(np.trapezoid(curve.returns, curve.steps))


def drop_ratio(ns_curve: EvalCurve, steady_curve: EvalCurve) -> float:
    """Fraction of steady-run area lost under drift: 1 - AUC_ns / AUC_steady.

    Negative values are legitimate (the drifting run outperformed its
    steady counterpart).
    """
    base = auc(steady_curve)
    if base == 0.0:
        raise ZeroBaseline("steady curve has zero area")
    return 1.0 - auc(ns_curve) / base


def recovery_time(curve: EvalCurve, change_points, window: int = 5,
                  total_steps: int | None = None) -> float:
    """Normalized time to regain the pre-change performance level.

    For each change point, the pre-change level is the mean return over
    the last ``window`` evaluation points before it; recovery happens at
    the first evaluation step at or after the change whose return meets
    that level. Unrecovered changes are capped at the next change point
    (or the end of the curve). The summed recovery spans are divided by
    total_steps (defaulting to the last evaluation step).
    """
    change_points = sorted(int(c) for c in change_points)
    if window < 1:
        raise ValueError("window must be >= 1")
    steps, rets = curve.steps, curve.returns
    if total_steps is None:
        total_steps = float(steps[-1]) if steps.size else 0.0
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    total = 0.0
    for i, tc in enumerate(change_points):
        before = np.nonzero(steps < tc)[0]
        if before.size == 0:
            raise NoPreWindow(f"no evaluation points precede change at {tc}")
        pre_level = float(rets[before[-window:]].mean())
        cap = change_points[i + 1] if i + 1 < len(change_points) else float(steps[-1])
        after = np.nonzero(steps >= tc)[0]
        recovered = None
        for j in after:
            if steps[j] > cap:
                break
            if rets[j] >= pre_level:
                recovered = float(steps[j])
                break
        span = (recovered - tc) if recovered is not None else (cap - tc)
        total += max(span, 0.0)
    return total / float(total_steps)
