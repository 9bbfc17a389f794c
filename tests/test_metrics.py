import numpy as np
import pytest

from driftsched import (
    EvalCurve,
    NoPreWindow,
    TooShort,
    ZeroBaseline,
    auc,
    drop_ratio,
    recovery_time,
)


def curve(steps, returns):
    return EvalCurve(np.asarray(steps, float), np.asarray(returns, float))


class TestAuc:
    def test_constant(self):
        c = curve([0, 50, 100], [3.0, 3.0, 3.0])
        assert auc(c) == pytest.approx(3.0 * 100, abs=1e-9)

    def test_linear_ramp(self):
        c = curve([0, 25, 50, 75, 100], [0, 0.25, 0.5, 0.75, 1.0])
        assert auc(c) == pytest.approx(50.0, abs=1e-9)

    def test_matches_refined_grid(self):
        rng = np.random.default_rng(0)
        steps = np.sort(rng.choice(np.arange(1000), size=30, replace=False))
        rets = rng.normal(size=30)
        coarse = curve(steps, rets)
        # refine by piecewise-linear interpolation, keeping the original
        # breakpoints so the trapezoid rule stays exact
        fine_steps = np.union1d(np.linspace(steps[0], steps[-1], 20001), steps)
        fine = curve(fine_steps, np.interp(fine_steps, steps, rets))
        assert auc(coarse) == pytest.approx(auc(fine), abs=1e-9)

    def test_additive_over_shared_endpoint(self):
        c1 = curve([0, 10, 20], [1, 2, 3])
        c2 = curve([20, 30], [3, 5])
        whole = curve([0, 10, 20, 30], [1, 2, 3, 5])
        assert auc(c1) + auc(c2) == pytest.approx(auc(whole))

    def test_too_short(self):
        with pytest.raises(TooShort):
            auc(curve([5], [1.0]))


class TestDropRatio:
    def test_identical_zero(self):
        c = curve([0, 10, 20], [1, 4, 2])
        assert drop_ratio(c, c) == 0.0

    def test_eighty_percent(self):
        steady = curve([0, 10], [1.0, 1.0])
        ns = curve([0, 10], [0.8, 0.8])
        assert drop_ratio(ns, steady) == pytest.approx(0.2)

    def test_negative_allowed(self):
        steady = curve([0, 10], [1.0, 1.0])
        better = curve([0, 10], [1.06, 1.06])
        assert drop_ratio(better, steady) == pytest.approx(-0.06)

    def test_zero_baseline(self):
        with pytest.raises(ZeroBaseline):
            drop_ratio(curve([0, 10], [1, 1]), curve([0, 10], [0.0, 0.0]))

    def test_scale_invariance(self):
        steady = curve([0, 10, 20], [2, 3, 4])
        ns = curve([0, 10, 20], [1, 2, 5])
        k = 3.0
        sk = curve([0, 10, 20], k * np.array([2, 3, 4.0]))
        nk = curve([0, 10, 20], k * np.array([1, 2, 5.0]))
        assert drop_ratio(nk, sk) == pytest.approx(drop_ratio(ns, steady))


class TestRecoveryTime:
    def test_flat_curve_immediate(self):
        c = curve(np.arange(0, 1001, 50), np.ones(21))
        # first eval at or after the change is 1000-aligned: t=500 exists
        assert recovery_time(c, [520], window=5, total_steps=1000) == pytest.approx(
            (550 - 520) / 1000
        )

    def test_never_recovering_mid_change(self):
        steps = np.arange(0, 1001, 50)
        rets = np.where(steps < 500, 1.0, 0.0)
        c = curve(steps, rets)
        assert recovery_time(c, [500], window=5, total_steps=1000) == pytest.approx(0.5)

    def test_synthetic_dip_width(self):
        steps = np.arange(0, 2001, 50)
        rets = np.ones_like(steps, dtype=float)
        dip = (steps >= 600) & (steps < 900)  # 300-step dip
        rets[dip] = 0.2
        c = curve(steps, rets)
        got = recovery_time(c, [600], window=5, total_steps=2000)
        assert abs(got * 2000 - 300) <= 50  # within one eval interval

    def test_capped_at_next_change(self):
        steps = np.arange(0, 1001, 50)
        rets = np.where(steps < 300, 1.0, 0.0)
        c = curve(steps, rets)
        got = recovery_time(c, [300, 700], window=5, total_steps=1000)
        # first change never recovers before the second (span 400); the
        # second change's pre-level is 0, recovered immediately at 700
        assert got == pytest.approx((400 + 0) / 1000)

    def test_no_pre_window(self):
        c = curve([100, 200], [1.0, 1.0])
        with pytest.raises(NoPreWindow):
            recovery_time(c, [50], window=5, total_steps=200)

    def test_bounded_contributions(self):
        rng = np.random.default_rng(4)
        steps = np.arange(0, 3001, 50)
        for _ in range(50):
            rets = rng.normal(size=steps.size)
            changes = sorted(rng.choice(np.arange(100, 2900), size=3, replace=False))
            got = recovery_time(curve(steps, rets), changes, window=5, total_steps=3000)
            assert 0.0 <= got <= 1.0


class TestFromTrace:
    def test_extracts_eval_points(self):
        from driftsched import RunTrace

        tr = RunTrace(columns={
            "t": np.arange(1, 6),
            "eval_return": np.array([np.nan, 2.0, np.nan, 4.0, np.nan]),
        })
        c = EvalCurve.from_trace(tr)
        assert list(c.steps) == [2, 4]
        assert list(c.returns) == [2.0, 4.0]
