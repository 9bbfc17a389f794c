
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftsched import (
    EmptyBatch,
    NegativeError,
    ProxyState,
    ScheduleConfig,
    eta_from_lambda,
    next_lambda,
    offline_lambda,
    online_lambda,
    oracle_lambda,
    td_quantile_proxy,
    update_proxy,
)
from driftsched.scheduler import MODES, _ema, _schedule_columns


def cfg(**kw):
    return ScheduleConfig(**kw)


class TestConfig:
    def test_defaults(self):
        c = cfg()
        assert (c.quantile_q, c.ema_beta) == (0.9, 0.95)
        assert (c.lambda_min, c.lambda_max) == (0.05, 1.0)

    def test_numbers_stored_as_floats(self):
        # an int schedule value would otherwise reach a trace as "1", not "1.0"
        c = cfg(c1=1, c2=2, c=3, lambda_min=1, lambda_max=4, quantile_q=1, ema_beta=0,
                mode="fixed", fixed_value=np.int64(1))
        values = [getattr(c, name) for name in ("c1", "c2", "c", "lambda_min", "lambda_max",
                                                "quantile_q", "ema_beta", "fixed_value")]
        assert values == [1.0, 2.0, 3.0, 1.0, 4.0, 1.0, 0.0, 1.0]
        assert all(type(v) is float for v in values)
        assert c.mode == "fixed"

    def test_bad_range(self):
        with pytest.raises(ValueError):
            cfg(lambda_min=2.0, lambda_max=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["c1", "c2", "c", "lambda_min", "lambda_max",
                                      "quantile_q", "ema_beta", "fixed_value"])
    @pytest.mark.parametrize("mode", MODES)
    def test_non_finite_rejected(self, mode, name, bad):
        # a NaN c once wrote an all-zero eta column and a NaN lambda_min a zero lambda
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            cfg(mode=mode, **{name: bad})

    def test_bad_mode(self):
        for mode in ("sometimes", "offline"):  # offline_lambda runs as a fixed schedule
            with pytest.raises(ValueError):
                cfg(mode=mode)


class TestOracleLambda:
    def test_zero_drift(self):
        assert oracle_lambda(0.0, cfg()) == 0.0

    def test_unit_point(self):
        c = cfg(c1=3.0, c2=7.0)
        assert oracle_lambda(7.0 / 3.0, c) == pytest.approx(1.0)

    def test_plug_in(self):
        assert oracle_lambda(1.0, cfg(c1=4.0, c2=1.0)) == pytest.approx(2.0)


class TestOfflineLambda:
    def test_zero_drift(self):
        assert offline_lambda(0.0, 100, cfg()) == 0.0

    def test_unit_point(self):
        c = cfg(c1=2.0, c2=5.0)
        assert offline_lambda(50 * 5.0 / 2.0, 50, c) == pytest.approx(1.0)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            c = cfg(c1=float(rng.uniform(0.1, 5)), c2=float(rng.uniform(0.1, 5)))
            a_total = float(rng.uniform(0.01, 40))
            horizon = int(rng.integers(1, 2000))
            lams = np.geomspace(1e-4, 10, 5000)
            phi = c.c1 * a_total / lams + c.c2 * horizon * lams
            coarse = lams[np.argmin(phi)]
            fine = np.linspace(coarse * 0.95, coarse * 1.05, 20001)
            phi = c.c1 * a_total / fine + c.c2 * horizon * fine
            best = fine[np.argmin(phi)]
            closed = offline_lambda(a_total, horizon, c)
            assert abs(closed - best) / closed <= 1e-3


class TestOnlineLambda:
    def test_floor_when_no_drift(self):
        s = ProxyState(a_hat_sum=0.0, t=5, ema_value=0.0)
        assert online_lambda(s, cfg()) == cfg().lambda_min

    def test_unit_interior(self):
        c = cfg(c1=2.0, c2=8.0, lambda_min=0.01, lambda_max=10.0)
        s = ProxyState(a_hat_sum=10 * 8.0 / 2.0, t=10, ema_value=1.0)
        assert online_lambda(s, c) == pytest.approx(1.0)

    def test_ceiling(self):
        s = ProxyState(a_hat_sum=1e9, t=3, ema_value=1.0)
        assert online_lambda(s, cfg()) == cfg().lambda_max

    def test_requires_update(self):
        with pytest.raises(ValueError):
            online_lambda(ProxyState(), cfg())


class TestTdQuantile:
    def test_all_equal(self):
        assert td_quantile_proxy([3.0] * 7, 0.5) == 3.0

    def test_nearest_rank(self):
        assert td_quantile_proxy(list(range(1, 11)), 0.9) == 9.0

    def test_single_element(self):
        for q in (0.01, 0.5, 1.0):
            assert td_quantile_proxy([4.2], q) == 4.2

    def test_monotone_in_q_and_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            batch = rng.exponential(1.0, int(rng.integers(1, 50)))
            qs = np.linspace(0.05, 1.0, 9)
            vals = [td_quantile_proxy(batch, q) for q in qs]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
            assert batch.min() <= vals[0] and vals[-1] == batch.max()

    def test_errors(self):
        with pytest.raises(EmptyBatch):
            td_quantile_proxy([], 0.9)
        with pytest.raises(NegativeError):
            td_quantile_proxy([1.0, -0.1], 0.9)


class TestUpdateProxy:
    def test_no_smoothing(self):
        c = cfg(ema_beta=0.0)
        s = ProxyState()
        for raw in (1.0, 4.0, 0.5):
            s = update_proxy(s, raw, c)
            assert s.ema_value == raw

    def test_constant_stream(self):
        c = cfg(ema_beta=0.7)
        s = ProxyState()
        for i in range(5):
            s = update_proxy(s, 2.5, c)
        assert s.ema_value == pytest.approx(2.5)
        assert s.a_hat_sum == pytest.approx(5 * 2.5)
        assert s.t == 5

    def test_impulse_decay(self):
        c = cfg(ema_beta=0.9)
        s = ProxyState()
        got = []
        for raw in (1.0, 0.0, 0.0, 0.0):
            s = update_proxy(s, raw, c)
            got.append(s.ema_value)
        assert got == pytest.approx([1.0, 0.9, 0.81, 0.729])

    def test_prefix_sum_nondecreasing(self):
        c = cfg(ema_beta=0.5)
        s = ProxyState()
        prev = 0.0
        rng = np.random.default_rng(1)
        for raw in rng.exponential(1.0, 50):
            s = update_proxy(s, float(raw), c)
            assert s.a_hat_sum >= prev
            prev = s.a_hat_sum


class TestEtaEnvelope:
    def test_from_zero(self):
        assert eta_from_lambda(0.3, 0.0, cfg(c=2.0)) == pytest.approx(0.6)

    def test_envelope_holds(self):
        assert eta_from_lambda(0.1, 0.5, cfg(c=1.0)) == 0.5

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=100))
    def test_nondecreasing(self, lams):
        c = cfg(c=0.7)
        eta = 0.0
        prev = 0.0
        for lam in lams:
            eta = eta_from_lambda(lam, eta, c)
            assert eta >= prev
            prev = eta


class TestNextLambda:
    def test_fixed(self):
        lam, proxy = next_lambda(cfg(mode="fixed", fixed_value=0.3), ProxyState(), 100.0)
        assert lam == 0.3
        assert proxy == ProxyState(a_hat_sum=100.0, t=1, ema_value=100.0)

    def test_online_floor_then_rise(self):
        c = cfg(mode="online", ema_beta=0.0, c1=1.0, c2=1.0)
        lam, proxy = next_lambda(c, ProxyState(), 0.0)
        assert lam == 0.05
        lam, proxy = next_lambda(c, proxy, 2.0)
        assert lam > 0.05
        assert lam == online_lambda(proxy, c)

    def test_oracle_needs_drift(self):
        c = cfg(mode="oracle", c1=4.0, c2=1.0)
        with pytest.raises(ValueError, match="true drift"):
            next_lambda(c, ProxyState(), 0.5)
        lam, proxy = next_lambda(c, ProxyState(), 0.5, drift=0.25)
        assert lam == oracle_lambda(0.25, c) == 1.0
        assert proxy.ema_value == 0.5


def per_round_columns(c, readings, drift=None):
    """The (lambda, eta, EMA) columns of iterated next_lambda and
    eta_from_lambda; round t reads readings[t] and has true drift drift[t],
    or readings[t] if drift is None."""
    lam_col, eta_col, ema_col = [], [], []
    proxy, eta = ProxyState(), 0.0
    for raw, alpha in zip(readings, readings if drift is None else drift):
        lam, proxy = next_lambda(c, proxy, raw, alpha)
        eta = eta_from_lambda(lam, eta, c)
        lam_col.append(lam)
        eta_col.append(eta)
        ema_col.append(proxy.ema_value)
    return tuple(np.array(col, dtype=float) for col in (lam_col, eta_col, ema_col))


VALUES = st.one_of(st.sampled_from([0.0, -0.0, np.inf, np.nan]), st.floats(0.0, 1e6))
READINGS = st.lists(VALUES, min_size=1, max_size=200)


@st.composite
def reading_and_drift(draw):
    """A reading column and either None or a drift column of its length."""
    readings = draw(READINGS)
    n = len(readings)
    return readings, draw(st.none() | st.lists(VALUES, min_size=n, max_size=n))


@st.composite
def schedules(draw):
    lambda_min = draw(st.floats(1e-4, 2.0))
    return cfg(mode=draw(st.sampled_from(MODES)), c1=draw(st.floats(1e-3, 1e3)),
               c2=draw(st.floats(1e-3, 1e3)), c=draw(st.floats(1e-3, 1e3)),
               lambda_min=lambda_min,
               lambda_max=lambda_min + draw(st.sampled_from([0.0, 0.5, 10.0])),
               ema_beta=draw(st.floats(0.0, 1.0, exclude_max=True)),
               fixed_value=draw(st.floats(1e-3, 10.0)))


class TestScheduleColumns:
    """The array pass an open-loop carrier runs equals the per-round rule."""

    @settings(max_examples=500, deadline=None)
    @given(schedules(), reading_and_drift())
    # long and unsmoothed: a prefix sum in another order than the running
    # sum's differs in the last bit here
    @example(cfg(mode="online", ema_beta=0.0, lambda_max=1e3),
             (np.random.default_rng(0).uniform(0.0, 10.0, 200).tolist(), None))
    @example(cfg(mode="oracle", ema_beta=0.5), ([0.0, 2.0, 0.0, 1.0], [0.0, 0.0, 4.0, 1.0]))
    def test_matches_next_lambda_bitwise(self, c, columns):
        readings, drift = columns
        got = _schedule_columns(c, np.array(readings),
                                None if drift is None else np.array(drift))
        lam, eta, ema = per_round_columns(c, readings, drift)
        # the proxy column: the EMA where the online rule reads it, else the readings
        proxy = ema if c.mode == "online" else np.array(readings, dtype=float)
        for ours, want in zip(got, (lam, eta, proxy)):
            assert ours.dtype == want.dtype and ours.shape == want.shape
            assert ours.tobytes() == want.tobytes()
        # the planner records the EMA in every mode
        assert _ema(readings, c.ema_beta).tobytes() == ema.tobytes()

    @pytest.mark.parametrize("beta", [0.0, 0.3])
    @pytest.mark.parametrize("readings", [
        [0.5, 0.0, 2.0, 1e-300, 3.0],
        [0.5, -0.0, 2.0],  # +0.0 * 0.5 + -0.0 is +0.0
        [-0.0, -0.0, 1.0],
        [-0.0],
        [0.5, np.inf, 2.0, 1.0],  # 0 * inf is NaN from the next round on
        [0.5, np.nan, 2.0],
        [np.inf],
    ])
    def test_ema_equals_the_recurrence(self, readings, beta):
        # the unrolled update_proxy recurrence, which _ema skips at beta = 0
        want = list(readings)
        for t in range(1, len(want)):
            want[t] = beta * want[t - 1] + (1.0 - beta) * want[t]
        got = _ema(np.array(readings), beta)
        assert got.tobytes() == np.array(want).tobytes()
        readings = np.array(readings)
        assert not np.shares_memory(_ema(readings, beta), readings)

    @pytest.mark.parametrize("mode", ["fixed", "oracle"])
    def test_no_ema_where_nothing_reads_it(self, mode, monkeypatch):
        from driftsched import scheduler

        def ema(*args):
            raise AssertionError("the EMA ran in a mode that does not read it")

        monkeypatch.setattr(scheduler, "_ema", ema)
        readings = np.array([0.0, 0.5, 0.25])
        assert _schedule_columns(cfg(mode=mode), readings)[2].tobytes() == readings.tobytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_negative_reading_raises_as_next_lambda_does(self, mode):
        # in oracle mode the reading is the drift: a NegativeError is the
        # ValueError oracle_lambda would raise, and update_proxy raises first
        c = cfg(mode=mode)
        readings = [0.0, 0.3, -1e-12, 0.2]
        with pytest.raises(NegativeError) as per_round:
            per_round_columns(c, readings)
        with pytest.raises(NegativeError) as columns:
            _schedule_columns(c, np.array(readings))
        assert type(columns.value) is type(per_round.value)

    def test_negative_drift_raises_as_oracle_lambda_does(self):
        c, readings, drift = cfg(mode="oracle"), [0.0, 0.3, 0.2], [0.0, -1e-12, 0.1]
        with pytest.raises(ValueError, match="drift must be nonnegative") as per_round:
            per_round_columns(c, readings, drift)
        with pytest.raises(ValueError, match="drift must be nonnegative") as columns:
            _schedule_columns(c, np.array(readings), np.array(drift))
        assert type(columns.value) is type(per_round.value)
        for mode in ("fixed", "online"):  # the drift is not read
            _schedule_columns(cfg(mode=mode), np.array(readings), np.array(drift))
