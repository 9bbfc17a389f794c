import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftsched import (
    InvalidEpsilon,
    NonPositiveTemperature,
    SimplexVec,
    SupportMismatch,
    bregman_neg_entropy,
    kl_div,
    log_sum_exp,
    neg_entropy,
    softmax,
    truncate,
)

# values below were frozen from 50-digit mpmath evaluations of the
# defining sums
KL_03_07_VS_06_04 = 0.18378689738681228756
LSE_31_HALF = 3.0090749639589048702
SOFTMAX_10 = (0.73105857863000487925, 0.26894142136999512075)


def probs(*vals):
    return np.asarray(vals, dtype=float)


class TestSimplexVec:
    def test_uniform(self):
        x = SimplexVec.uniform(4)
        assert np.allclose(x.probs, 0.25)
        assert x.k == 4

    def test_sum_validated(self):
        with pytest.raises(ValueError, match="sum"):
            SimplexVec(probs(0.5, 0.6))

    def test_floor_validated(self):
        with pytest.raises(ValueError, match="floor"):
            SimplexVec(probs(0.99, 0.01), epsilon_floor=0.05)

    def test_floor_above_uniform_rejected(self):
        with pytest.raises(InvalidEpsilon):
            SimplexVec(probs(0.5, 0.5), epsilon_floor=0.6)

    @pytest.mark.parametrize("vals,floor", [
        ((math.nan, math.nan), 0.0), ((0.5, math.nan), 0.0), ((math.nan, 1.0), 0.0),
        ((0.5, 0.5), math.nan),
    ])
    def test_nan_rejected(self, vals, floor):
        # the sum and floor checks are written so that NaN fails them
        with pytest.raises(ValueError):
            SimplexVec(probs(*vals), epsilon_floor=floor)

    def test_normalized(self):
        x = SimplexVec.normalized([2.0, 6.0])
        assert np.allclose(x.probs, [0.25, 0.75])


class TestNegEntropy:
    def test_uniform_minimizer(self):
        assert neg_entropy(SimplexVec.uniform(4)) == pytest.approx(-math.log(4), abs=1e-12)

    def test_vertex_maximizer(self):
        for k in (2, 5, 9):
            assert neg_entropy(SimplexVec.vertex(k, 0)) == 0.0

    def test_binary_symmetric(self):
        assert neg_entropy(probs(0.5, 0.5)) == pytest.approx(-math.log(2), abs=1e-12)

    def test_range_bulk(self):
        rng = np.random.default_rng(7)
        for k in (2, 3, 8, 16, 32):
            x = rng.dirichlet(np.ones(k), size=2000)
            h = np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0).sum(axis=1)
            vals = np.array([neg_entropy(row) for row in x[:200]])
            assert (vals <= 1e-15).all()
            assert (vals >= -math.log(k) - 1e-12).all()
            assert (h <= 1e-15).all() and (h >= -math.log(k) - 1e-12).all()


class TestKl:
    def test_identity_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.dirichlet(np.ones(5))
            assert kl_div(x, x) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_vs_uniform(self):
        assert kl_div(probs(1.0, 0.0), probs(0.5, 0.5)) == pytest.approx(math.log(2), abs=1e-14)

    def test_frozen_value(self):
        assert kl_div(probs(0.3, 0.7), probs(0.6, 0.4)) == pytest.approx(
            KL_03_07_VS_06_04, abs=1e-14
        )

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatch):
            kl_div(probs(0.5, 0.5), probs(1.0, 0.0))


class TestBregman:
    def test_identity_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.dirichlet(np.ones(4))
            assert bregman_neg_entropy(x, x) == pytest.approx(0.0, abs=1e-14)

    def test_matches_kl_frozen(self):
        assert bregman_neg_entropy(probs(0.3, 0.7), probs(0.6, 0.4)) == pytest.approx(
            KL_03_07_VS_06_04, abs=1e-12
        )

    def test_vertex_vs_uniform(self):
        assert bregman_neg_entropy(probs(1.0, 0.0), probs(0.5, 0.5)) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_agreement_bulk(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            k = int(rng.integers(2, 9))
            x, y = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
            assert abs(bregman_neg_entropy(x, y) - kl_div(x, y)) <= 1e-10


class TestLogSumExp:
    def test_two_zeros(self):
        assert log_sum_exp(probs(0.0, 0.0), 1.0) == pytest.approx(math.log(2), abs=1e-14)

    def test_constant_shift(self):
        for k, c, mu in ((3, 5.0, 0.7), (6, -2.0, 2.0)):
            assert log_sum_exp(np.full(k, c), mu) == pytest.approx(
                c + mu * math.log(k), abs=1e-12
            )

    def test_frozen_value(self):
        assert log_sum_exp(probs(3.0, 1.0), 0.5) == pytest.approx(LSE_31_HALF, abs=1e-13)

    def test_no_overflow_at_extremes(self):
        v = log_sum_exp(probs(1e6, -1e6), 1.0)
        assert np.isfinite(v) and v == pytest.approx(1e6)

    def test_nonpositive_temperature(self):
        with pytest.raises(NonPositiveTemperature):
            log_sum_exp(probs(1.0, 2.0), 0.0)


class TestSoftmax:
    def test_zero_scores_uniform(self):
        for mu in (0.1, 1.0, 17.0):
            assert np.allclose(softmax(np.zeros(5), mu).probs, 0.2, atol=1e-14)

    def test_frozen_value(self):
        p = softmax(probs(1.0, 0.0), 1.0).probs
        assert p == pytest.approx(SOFTMAX_10, abs=1e-13)

    def test_dominance_limit(self):
        p = softmax(probs(10.0, 0.0), 0.1).probs
        assert p[0] >= 1.0 - 1e-40

    def test_nonpositive_temperature(self):
        with pytest.raises(NonPositiveTemperature):
            softmax(probs(1.0, 0.0), -1.0)


class TestTruncate:
    def test_interior_unchanged(self):
        x = probs(0.3, 0.3, 0.4)
        assert np.array_equal(truncate(x, 1e-6).probs, x)

    def test_vertex_floor(self):
        assert np.allclose(truncate(probs(1.0, 0.0), 0.01).probs, [0.99, 0.01], atol=1e-15)

    def test_uniform_at_max_floor(self):
        assert np.allclose(truncate(probs(0.25, 0.25, 0.25, 0.25), 0.25).probs, 0.25)

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidEpsilon):
            truncate(probs(0.5, 0.5), 0.6)
        with pytest.raises(InvalidEpsilon):
            truncate(probs(0.5, 0.5), 0.0)

    def test_matches_euclidean_projection_k2(self):
        # exhaustive KKT solve of min ||y - x||^2 on the floored 2-simplex:
        # the feasible set is the segment y_1 in [eps, 1-eps], so the
        # projection clamps the first coordinate
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = rng.dirichlet(np.ones(2))
            eps = float(rng.uniform(0.01, 0.5))
            got = truncate(x, eps).probs
            want1 = min(max(x[0], eps), 1.0 - eps)
            assert got == pytest.approx([want1, 1.0 - want1], abs=1e-12)


@st.composite
def simplex_points(draw, max_k=8):
    k = draw(st.integers(2, max_k))
    raw = draw(
        st.lists(st.floats(1e-6, 1.0, allow_nan=False), min_size=k, max_size=k)
    )
    arr = np.asarray(raw)
    return arr / arr.sum()


@settings(max_examples=200, deadline=None)
@given(simplex_points(), simplex_points())
def test_pinsker(x, y):
    if x.size != y.size:
        return
    assert kl_div(x, y) >= 0.5 * float(np.abs(x - y).sum()) ** 2 - 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(0.05, 5.0), st.floats(-20, 20))
def test_softmax_shift_invariance_and_sum(q, mu, shift):
    q = np.asarray(q)
    p1 = softmax(q, mu).probs
    p2 = softmax(q + shift, mu).probs
    assert abs(p1.sum() - 1.0) <= 1e-12
    assert np.abs(p1 - p2).max() <= 1e-10


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=8),
       st.lists(st.floats(-100, 100), min_size=2, max_size=8),
       st.floats(0.05, 5.0))
def test_lse_lipschitz(q1, q2, mu):
    if len(q1) != len(q2):
        return
    q1, q2 = np.asarray(q1), np.asarray(q2)
    gap = abs(log_sum_exp(q1, mu) - log_sum_exp(q2, mu))
    assert gap <= np.abs(q1 - q2).max() + 1e-10


@settings(max_examples=200, deadline=None)
@given(simplex_points(), st.floats(1e-6, 0.12))
def test_truncate_feasible_and_idempotent(x, eps):
    y = truncate(x, eps)
    assert abs(y.probs.sum() - 1.0) <= 1e-12
    assert (y.probs >= eps - 1e-12).all()
    z = truncate(y, eps)
    assert np.abs(z.probs - y.probs).max() <= 1e-12


def test_gradient_bound_on_floored_simplex():
    rng = np.random.default_rng(5)
    for _ in range(500):
        k = int(rng.integers(2, 33))
        eps = float(rng.uniform(1e-6, 1.0 / k))
        x = truncate(rng.dirichlet(np.ones(k)), eps)
        assert np.abs(1.0 + np.log(x.probs)).max() <= 1.0 + abs(math.log(eps)) + 1e-12
