"""Probability-simplex geometry.

Negative entropy, KL/Bregman divergence, temperature log-sum-exp and
softmax, plus truncation to the floored simplex {x : x_i >= eps}. The
public functions are pure and accept either a :class:`SimplexVec` or a
plain array-like of probabilities; the row kernel _truncate_rows writes
into its input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidEpsilon, NonPositiveTemperature, SupportMismatch

SUM_TOL = 1e-12


@dataclass(frozen=True)
class SimplexVec:
    """Probability vector, optionally floored at ``epsilon_floor``.

    Invariants are checked at construction: entries sum to 1 within
    1e-12 and every coordinate is >= max(0, epsilon_floor). A floor of
    0 means the untruncated simplex.
    """

    probs: np.ndarray
    epsilon_floor: float = 0.0

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a nonempty 1-D vector")
        k = p.size
        if not 0.0 <= self.epsilon_floor <= 1.0 / k + SUM_TOL:  # NaN fails each check
            raise InvalidEpsilon(
                f"epsilon_floor {self.epsilon_floor} outside [0, 1/{k}]"
            )
        if not abs(p.sum() - 1.0) <= SUM_TOL:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        floor = max(0.0, self.epsilon_floor)
        if not (p >= floor - SUM_TOL).all():
            raise ValueError(f"coordinate below floor {floor}: {p.min()!r}")

    @property
    def k(self) -> int:
        return self.probs.size

    @staticmethod
    def uniform(k: int, epsilon_floor: float = 0.0) -> "SimplexVec":
        return SimplexVec(np.full(k, 1.0 / k), epsilon_floor)

    @staticmethod
    def vertex(k: int, i: int) -> "SimplexVec":
        p = np.zeros(k)
        p[i] = 1.0
        return SimplexVec(p)

    @staticmethod
    def normalized(weights, epsilon_floor: float = 0.0) -> "SimplexVec":
        """Build from nonnegative weights, renormalizing the sum to 1."""
        w = np.array(weights, dtype=float)
        total = w.sum()
        if total <= 0.0 or not np.isfinite(total):
            raise ValueError("weights must have a positive finite sum")
        return SimplexVec(w / total, epsilon_floor)


def as_probs(x) -> np.ndarray:
    """Extract the probability array from a SimplexVec or array-like."""
    if isinstance(x, SimplexVec):
        return x.probs
    return np.asarray(x, dtype=float)


def _row_neg_entropy(p: np.ndarray) -> np.ndarray:
    """Sum of p log p over the last axis, 0 log 0 = 0: neg_entropy of each row."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return terms.sum(axis=-1)


def neg_entropy(x) -> float:
    """Sum of x_i log x_i, with the 0 log 0 = 0 convention.

    Lies in [-log K, 0]: minimized at the uniform vector, maximized at
    vertices.
    """
    return float(_row_neg_entropy(np.ravel(as_probs(x))))


def kl_div(x, y) -> float:
    """KL divergence sum x_i log(x_i / y_i); requires supp(x) ⊆ supp(y)."""
    p, q = as_probs(x), as_probs(y)
    if ((p > 0.0) & (q <= 0.0)).any():
        raise SupportMismatch("x has mass where y is zero")
    mask = p > 0.0
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())


def bregman_neg_entropy(x, y) -> float:
    """Bregman divergence of negative entropy from its three-term definition.

    Equals kl_div(x, y) analytically; computed independently here so the
    identity can be checked numerically.
    """
    p, q = as_probs(x), as_probs(y)
    if ((p > 0.0) & (q <= 0.0)).any():
        raise SupportMismatch("x has mass where y is zero")
    mask = q > 0.0
    grad = 1.0 + np.log(q[mask])
    inner = float((grad * (p[mask] - q[mask])).sum())
    return neg_entropy(p) - neg_entropy(q) - inner


def _row_divergence(p: np.ndarray, q: np.ndarray, bregman: bool = False) -> np.ndarray:
    """kl_div (or bregman_neg_entropy) of each row pair of two (m, K) arrays, with
    its bits. A row with a zero coordinate goes through the 1-D function, which
    sums compacted: for K >= 8 a sum with zeros in place can differ."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if bregman:
            out = (_row_neg_entropy(p) - _row_neg_entropy(q)
                   - ((1.0 + np.log(q)) * (p - q)).sum(axis=-1))
        else:
            out = (p * np.log(p / q)).sum(axis=-1)
    one = bregman_neg_entropy if bregman else kl_div
    for i in np.flatnonzero(~((p > 0.0) & (q > 0.0)).all(axis=-1)):
        out[i] = one(p[i], q[i])
    return out


def _row_lse(a: np.ndarray):
    """log sum exp over the last axis of a float array.

    Follows Blanchard, Higham & Higham, "Accurately computing the
    log-sum-exp and softmax functions" (IMA J. Numer. Anal. 41(4), 2021)
    the way scipy.special.logsumexp(a, axis=-1) does for real input, one
    operation for each of its operations, so the two agree bit for bit:
    the entries tied at the row maximum are taken out of the shifted sum
    and enter as log(m), and rows whose result is not finite (+-inf or
    NaN entries, overflow) fall back to log(sum(exp(a))).
    """
    if a.size == 0:
        return np.full(a.shape[:-1], -np.inf)[()]
    if a.ndim == 0:
        a = a[None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _row_exp(a)[1]
    return out[..., 0] if out.ndim > 1 else out[0]


def _row_exp(a: np.ndarray) -> tuple:
    """(exp(a - max), _row_lse(a)) over the last axis of a nonempty float array, keeping
    that axis; call it under an np.errstate that ignores divide, invalid and over."""
    a_max = a.max(axis=-1, keepdims=True)
    tied = a == a_max
    m = tied.sum(axis=-1, keepdims=True, dtype=a.dtype)
    e = np.exp(a - a_max)
    # a tied exp(0) = 1, zeroed, is scipy's exp(-inf) = +0.0, and +0.0 / m is +0.0 too
    s = np.where(tied, 0.0, e).sum(axis=-1, keepdims=True) / m
    out = np.log1p(s) + np.log(m) + a_max
    finite = np.isfinite(out)
    if not finite.all():
        out = np.where(finite, out, np.log(np.exp(a).sum(axis=-1, keepdims=True)))
    return e, out


def _row_softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, exp(x - max) / sum, as scipy computes it."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_sum_exp(q, mu: float) -> float:
    """mu * log sum_a exp(q_a / mu), computed via the max-shift trick."""
    if not mu > 0.0:  # NaN fails
        raise NonPositiveTemperature(f"temperature must be > 0, got {mu}")
    return float(mu * _row_lse(np.asarray(q, dtype=float).ravel() / mu))


def softmax(q, mu: float) -> SimplexVec:
    """Temperature softmax exp(q_i/mu) / sum_j exp(q_j/mu), max-shifted."""
    if not mu > 0.0:  # NaN fails
        raise NonPositiveTemperature(f"temperature must be > 0, got {mu}")
    p = _row_softmax(np.asarray(q, dtype=float) / mu)
    return SimplexVec(p / p.sum(), 0.0)


def _truncate_rows(p: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """truncate of each row of an (m, K) array, row i at floor eps[i], written
    into p. A pass sums the free mass of the rows of one free count at a time,
    compacted to (rows, free), so each sum has the 1-D sum's bits."""
    k = p.shape[-1]
    bad = (eps <= 0.0) | (eps > 1.0 / k + SUM_TOL)
    if bad.any():
        raise InvalidEpsilon(f"floor {eps[bad][0]} outside (0, 1/{k}]")
    touched = np.flatnonzero(~(p >= eps[:, None]).all(axis=-1))
    if not touched.size:
        return p
    x, e = p[touched], eps[touched, None]  # the rows truncate changes, and their floors
    fixed = x < e
    live = fixed.any(axis=-1)  # rows with coordinates newly below the floor
    last = np.ones(len(x), dtype=bool)  # rows that end with the renormalization
    while live.any():
        n_fixed = fixed.sum(axis=-1)
        remaining = 1.0 - e[:, 0] * n_fixed
        # all fixed, or no mass left: only reachable at eps ~ 1/K, where the answer is
        # uniform, so the row's every coordinate stays fixed at 1/K
        flat = (n_fixed == k) | (remaining <= 0.0)
        if flat.any():
            fixed[flat], e[flat], last[flat] = True, 1.0 / k, False
        x = np.where(fixed, e, x)
        scale, rescaled = np.ones(len(x)), live & ~flat
        for n in set(n_fixed[rescaled].tolist()):
            rows = rescaled & (n_fixed == n)
            scale[rows] = remaining[rows] / x[rows][~fixed[rows]].reshape(-1, k - n).sum(axis=-1)
        x = np.where(fixed, x, x * scale[:, None])
        low = (x < e) & ~fixed
        fixed |= low
        live = low.any(axis=-1)
    x[last] /= x[last].sum(axis=-1, keepdims=True)
    p[touched] = x
    return p


def truncate(x, eps: float) -> SimplexVec:
    """Project onto the floored simplex {y : y_i >= eps, sum y = 1}.

    Coordinates below the floor are raised to eps and the remaining mass
    is renormalized over the free coordinates; the floored set only
    grows, so at most K passes are needed. Inputs already above the
    floor are returned unchanged.
    """
    p = np.array(as_probs(x), dtype=float)
    return SimplexVec(_truncate_rows(p.reshape(1, -1), np.array([eps])).reshape(p.shape), eps)
