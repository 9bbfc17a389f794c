"""Temperature schedules and the drift-proxy bookkeeping that feeds them.

Three schedule modes share one config and one per-round rule,
next_lambda: a fixed value, the per-round oracle sqrt(C1*alpha_t/C2),
and the clipped online rule sqrt(C1/C2)*sqrt(A_hat_t/t) driven by an
observable proxy (e.g. a TD-error quantile). The offline constant
sqrt(C1*A_T/(C2*T)) is offline_lambda, run as a fixed schedule. The
open-loop carriers, run_dynamic_many and the planner, whose readings
depend on the task alone, run the same rule as one array pass
(_schedule_columns). The TD learner reads its own TD errors, so it is
closed-loop and calls next_lambda once a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import EmptyBatch, NegativeError

MODES = ("fixed", "oracle", "online")


@dataclass(frozen=True)
class ScheduleConfig:
    """Constants governing every lambda/eta schedule.

    ``c`` couples the mirror-descent step size to the temperature via
    eta = c * lambda. Defaults: quantile 0.9, EMA 0.95, clip range
    [0.05, 1.0], C1 = C2 = c = 1.
    """

    c1: float = 1.0
    c2: float = 1.0
    c: float = 1.0
    lambda_min: float = 0.05
    lambda_max: float = 1.0
    quantile_q: float = 0.9
    ema_beta: float = 0.95
    mode: str = "online"
    fixed_value: float = 0.1

    def __post_init__(self):
        # an int value would reach a trace as "1" where a float writes "1.0"
        for name in (f.name for f in fields(self) if f.type == "float"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        # each range check is written so that NaN fails it
        for name in ("c1", "c2", "c", "lambda_min"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not self.lambda_max >= self.lambda_min:
            raise ValueError("lambda_max must be >= lambda_min")
        if not 0.0 < self.quantile_q <= 1.0:
            raise ValueError("quantile_q must lie in (0, 1]")
        if not 0.0 <= self.ema_beta < 1.0:
            raise ValueError("ema_beta must lie in [0, 1)")
        if self.mode == "fixed" and not self.fixed_value > 0.0:
            raise ValueError("fixed_value must be positive in fixed mode")


@dataclass(frozen=True)
class ProxyState:
    """Running proxy statistics: EMA of the raw signal and its prefix sum."""

    a_hat_sum: float = 0.0
    t: int = 0
    ema_value: float = 0.0


def oracle_lambda(alpha_t: float, cfg: ScheduleConfig) -> float:
    """Per-round minimizer of C1*alpha/lambda + C2*lambda."""
    if alpha_t < 0.0:
        raise ValueError("drift must be nonnegative")
    return math.sqrt(cfg.c1 * alpha_t / cfg.c2)


def offline_lambda(a_total: float, horizon: int, cfg: ScheduleConfig) -> float:
    """Best constant temperature given total drift a_total over horizon rounds."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if a_total < 0.0:
        raise ValueError("total drift must be nonnegative")
    return math.sqrt(cfg.c1 * a_total / (cfg.c2 * horizon))


def online_lambda(state: ProxyState, cfg: ScheduleConfig) -> float:
    """Clipped prefix-average rule sqrt(C1/C2) * sqrt(A_hat_t / t)."""
    if state.t < 1:
        raise ValueError("proxy state has not been updated yet")
    raw = math.sqrt(cfg.c1 / cfg.c2) * math.sqrt(state.a_hat_sum / state.t)
    return float(min(cfg.lambda_max, max(cfg.lambda_min, raw)))


def td_quantile_proxy(abs_errors, q: float) -> float:
    """Nearest-rank q-quantile of a batch of absolute errors.

    Sorts ascending and returns the element at index ceil(q*n) - 1.
    """
    errs = np.asarray(abs_errors, dtype=float)
    if errs.size == 0:
        raise EmptyBatch("quantile of an empty batch")
    if (errs < 0.0).any():
        raise NegativeError("absolute errors must be nonnegative")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    idx = math.ceil(q * errs.size) - 1
    return float(np.sort(errs)[idx])


def update_proxy(state: ProxyState, raw: float, cfg: ScheduleConfig) -> ProxyState:
    """Fold one raw proxy reading into the EMA and its prefix sum."""
    if raw < 0.0:
        raise NegativeError("proxy reading must be nonnegative")
    if state.t == 0:
        ema = float(raw)
    else:
        ema = cfg.ema_beta * state.ema_value + (1.0 - cfg.ema_beta) * raw
    return ProxyState(a_hat_sum=state.a_hat_sum + ema, t=state.t + 1, ema_value=ema)


def eta_from_lambda(lam: float, eta_prev: float, cfg: ScheduleConfig) -> float:
    """Monotone step-size envelope max(eta_prev, c * lambda)."""
    if lam < 0.0:
        raise ValueError("lambda must be nonnegative")
    return max(eta_prev, cfg.c * lam)


def next_lambda(cfg: ScheduleConfig, proxy: ProxyState, raw: float,
                drift: float | None = None) -> tuple:
    """One schedule round: fold raw into the proxy, then pick lambda by cfg.mode.

    Returns (lambda, updated proxy). Fixed mode gives fixed_value, online
    mode the clipped prefix-average rule on the updated proxy, oracle
    mode the per-round minimizer of the true drift, which it must be given.
    """
    proxy = update_proxy(proxy, raw, cfg)
    if cfg.mode == "fixed":
        return cfg.fixed_value, proxy
    if cfg.mode == "online":
        return online_lambda(proxy, cfg), proxy
    if drift is None:
        raise ValueError("oracle mode needs the true drift")
    return oracle_lambda(drift, cfg), proxy


def _ema(reading, beta: float) -> np.ndarray:
    """ema_value after each round of a reading column, by update_proxy's recurrence.

    At beta = 0 a round's value is 0.0 * previous + reading, which is the
    reading itself unless a reading is infinite or NaN (0 * inf is NaN) or
    -0.0 (+0.0 + -0.0 is +0.0); such columns, any with a sign bit set, and
    beta != 0 run the loop.
    """
    reading = np.asarray(reading, dtype=float)
    if beta == 0.0 and np.isfinite(reading).all() and not np.signbit(reading).any():
        return reading.copy()
    ema = reading.tolist()
    for t in range(1, len(ema)):
        ema[t] = beta * ema[t - 1] + (1.0 - beta) * ema[t]
    return np.array(ema, dtype=float)


def _schedule_columns(cfg: ScheduleConfig, reading, drift=None) -> tuple:
    """next_lambda and eta_from_lambda over whole columns at once.

    reading[t] is round t's proxy reading and drift[t] its true drift
    (reading itself if drift is None), as an open-loop carrier knows them
    before round 1. Returns the (lambda, eta, proxy) columns: the proxy is
    the readings' _ema in online mode, which alone reads it, else the
    readings. Every entry has the per-round rules' bits: np.cumsum adds in
    sequence like the running sum, fmax and fmin drop a NaN as the scalar
    clip does, and the envelope keeps eta_prev unless c * lambda exceeds
    it. Negative readings and oracle drifts raise as next_lambda does.
    """
    reading = np.asarray(reading, dtype=float)
    if (reading < 0.0).any():
        raise NegativeError("proxy reading must be nonnegative")
    proxy = reading
    if cfg.mode == "fixed":
        lam = np.full(reading.shape, cfg.fixed_value, dtype=float)
    elif cfg.mode == "oracle":
        drift = reading if drift is None else np.asarray(drift, dtype=float)
        if (drift < 0.0).any():
            raise ValueError("drift must be nonnegative")
        lam = np.sqrt(cfg.c1 * drift / cfg.c2)
    else:
        proxy = _ema(reading, cfg.ema_beta)
        raw = math.sqrt(cfg.c1 / cfg.c2) * np.sqrt(
            np.cumsum(proxy) / np.arange(1, len(proxy) + 1))
        lam = np.fmin(cfg.lambda_max, np.fmax(cfg.lambda_min, raw))
    step = cfg.c * lam
    eta = np.maximum.accumulate(np.where(step > 0.0, step, 0.0))
    return lam, eta, proxy
