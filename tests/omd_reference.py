"""Per-round mirror-descent references for the lockstep carriers' tests.

The library steps whole stacks of rows with omd._mirror_step. These are
the one-row, one-round forms it replaced: a linear loss, an iterate
state, one mirror step and the regularized gradient. reference_run_dynamic
(test_omd.py) and reference_planner_step (test_agent.py) build their
per-round loops from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from driftsched.errors import BoundaryIterate, NonFiniteGradient
from driftsched.omd import _mirror_step
from driftsched.simplex import SimplexVec, as_probs


@dataclass(frozen=True)
class LinearLoss:
    """f(x) = <grad, x> + offset."""

    grad: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "grad", np.asarray(self.grad, dtype=float))

    def value(self, x) -> float:
        return float(self.grad @ as_probs(x)) + self.offset


@dataclass(frozen=True)
class OmdState:
    """Current iterate, last step size (for the envelope), step index."""

    x: SimplexVec
    eta_prev: float = 0.0
    t: int = 0


def md_step(state: OmdState, g, eta: float, eps: float) -> OmdState:
    """One multiplicative-weights step, then truncation to the eps-floor.

    eta = 0 is permitted and leaves the point unchanged (oracle schedules
    emit a zero temperature on drift-free rounds).
    """
    g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():
        raise NonFiniteGradient("gradient contains NaN or infinity")
    if eta < 0.0:
        raise ValueError("step size must be nonnegative")
    p = state.x.probs
    with np.errstate(divide="ignore"):
        logp = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), -np.inf)
    x_new = SimplexVec(_mirror_step(logp, g, eta, eps), max(eps, 0.0))
    return OmdState(x=x_new, eta_prev=max(state.eta_prev, eta), t=state.t + 1)


def regularized_grad(g_f, x, lam: float) -> np.ndarray:
    """Gradient of f + lambda * neg_entropy at an interior point.

    Componentwise g_f + lambda * (1 + log x); on the eps-floored simplex
    its sup norm is at most G + lambda * (1 + |log eps|).
    """
    p = as_probs(x)
    if (p <= 0.0).any():
        raise BoundaryIterate("entropy gradient needs all coordinates > 0")
    return np.asarray(g_f, dtype=float) + lam * (1.0 + np.log(p))
