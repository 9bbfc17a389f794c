"""The row kernels against their references, bit for bit: log-sum-exp and
softmax against scipy, and the negative-entropy, divergence and truncation
row kernels against the library's 1-D functions.

scipy is a test-only oracle here: the library itself must not import it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

import driftsched
from driftsched import log_sum_exp, soft_policy, soft_values, softmax
from driftsched.errors import InvalidEpsilon, SupportMismatch
from driftsched.simplex import (_row_divergence, _row_lse, _row_neg_entropy, _row_softmax,
                                _truncate_rows, bregman_neg_entropy, kl_div, neg_entropy,
                                truncate)
from driftsched.softmdp import _soft_pass

HUGE = np.finfo(float).max
# a small pool makes ties at the row maximum common
EDGES = (0.0, -0.0, 1.0, -1.0, 2.5, 1e308, -1e308, HUGE, -HUGE,
         np.inf, -np.inf, np.nan)
ELEMENTS = st.one_of(
    st.sampled_from(EDGES),
    st.floats(-800.0, 800.0),
    st.floats(allow_nan=True, allow_infinity=True),
)
ARRAYS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
    elements=ELEMENTS,
)


def assert_bits_equal(ours, theirs):
    assert type(ours) is type(theirs)
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    assert ours.dtype == theirs.dtype
    assert ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


@settings(max_examples=600, deadline=None)
@given(ARRAYS)
@example(np.full(3, -np.inf))
@example(np.array([[-np.inf, -np.inf], [0.0, 1.0], [-np.inf, 5.0]]))
@example(np.array([[1e308, 1e308, -1e308], [-1e308, -1e308, -1e308]]))
@example(np.array([[HUGE, HUGE], [np.inf, 1.0], [np.nan, 2.0]]))
@example(np.array([[[3.0, 3.0, 3.0, 1.0]], [[-2.0, 7.0, 7.0, 7.0]]]))
# the shifted sum is 0 and m = K, a one-element row, a shift that
# overflows, and a row whose max is NaN (m = 0, s NaN): s / m needs no guard
@example(np.full((2, 4), -1.5))
@example(np.array([[0.25]]))
@example(np.array([HUGE, -HUGE]))
@example(np.array([[1.0, np.nan, 3.0], [0.0, 0.0, 1.0]]))
def test_row_lse_matches_scipy_bitwise(a):
    with np.errstate(all="ignore"):  # scipy warns on a - max overflowing
        expected = special.logsumexp(a, axis=-1)
    assert_bits_equal(_row_lse(a), expected)


@settings(max_examples=600, deadline=None)
@given(ARRAYS)
@example(np.full(3, -np.inf))
@example(np.array([[1e308, 1e308, -1e308], [-np.inf, 0.0, 0.0]]))
@example(np.array([[[3.0, 3.0, 1.0]], [[np.inf, 0.0, np.nan]]]))
def test_row_softmax_matches_scipy_bitwise(x):
    with np.errstate(all="ignore"):
        assert_bits_equal(_row_softmax(x), special.softmax(x, axis=-1))


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=6),
                  elements=st.floats(-50.0, 50.0)),
       st.floats(0.01, 10.0))
def test_public_functions_keep_scipy_values(q, mu):
    assert_bits_equal(soft_values(q, mu), mu * special.logsumexp(q / mu, axis=-1))
    pi = special.softmax(q / mu, axis=-1)
    assert_bits_equal(soft_policy(q, mu), pi / pi.sum(axis=-1, keepdims=True))
    if q.ndim == 1:
        assert log_sum_exp(q, mu) == float(mu * special.logsumexp(q / mu))
        p = special.softmax(q / mu)
        assert_bits_equal(softmax(q, mu).probs, p / p.sum())


TEMPERATURES = st.one_of(st.sampled_from((5e-324, 1e-300, 0.2, 1.0, 1e300, HUGE)),
                         st.floats(min_value=5e-324, allow_infinity=False))


@settings(max_examples=600, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=5),
                  elements=ELEMENTS), TEMPERATURES,
       st.none() | st.lists(TEMPERATURES, min_size=5, max_size=5))
# ties at the max, huge and tiny entries, and rows that take the fallback
@example(np.array([[2.0, 2.0, 1.0], [0.0, -0.0, -0.0], [5e-324, 0.0, -5e-324]]), 0.2, None)
@example(np.array([[HUGE, -HUGE], [1e308, 1e308], [-HUGE, -HUGE]]), 1e-3, None)
@example(np.array([[np.inf, 1.0], [np.nan, 0.0], [-np.inf, -np.inf], [np.inf, -np.inf]]),
         1.0, None)
@example(np.array([[[1.0, 1.0]], [[HUGE, 0.5]], [[np.nan, 1.0]]]), 1.0, [0.2, 1e-300, 3.0])
def test_soft_pass_is_soft_values_and_soft_policy(q, mu, mus):
    # an (n, S, A) stack takes one mu or, given mus, one per entry
    if q.ndim == 3 and mus is not None:
        mu = np.array(mus[:len(q)])
    with np.errstate(all="ignore"):
        v, pi = _soft_pass(q, mu)
        assert_bits_equal(v, soft_values(q, mu))
        if np.ndim(mu):
            assert_bits_equal(pi, np.stack([soft_policy(qi, mi) for qi, mi in zip(q, mu)]))
        else:
            assert_bits_equal(pi, soft_policy(q, mu))


def test_empty_rows_give_minus_inf():
    assert_bits_equal(_row_lse(np.empty(0)), special.logsumexp(np.empty(0), axis=-1))
    empty_rows = np.empty((3, 0))
    assert_bits_equal(_row_lse(empty_rows), special.logsumexp(empty_rows, axis=-1))


def test_import_does_not_load_scipy():
    src = str(Path(driftsched.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, driftsched; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def reference_neg_entropy(p):
    """neg_entropy as a 1-D sum of p log p with 0 log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return float(terms.sum())


def reference_truncate(x, eps):
    """truncate of one vector, a pass at a time over its coordinates."""
    p = np.array(x, dtype=float)
    k = p.size
    if (p >= eps).all():
        return p
    fixed = np.zeros(k, dtype=bool)
    for _ in range(k):
        low = (p < eps) & ~fixed
        if not low.any():
            break
        fixed |= low
        p[fixed] = eps
        free = ~fixed
        remaining = 1.0 - eps * fixed.sum()
        if not free.any() or remaining <= 0.0:
            return np.full(k, 1.0 / k)
        p[free] *= remaining / p[free].sum()
    return p / p.sum()


# rows of probabilities with exact zeros and tiny entries; K >= 8 rows take
# numpy's unrolled pairwise sum, where a masked sum and a compacted one can differ
WEIGHTS = st.one_of(st.just(0.0), st.sampled_from((1e-300, 1e-17, 0.5, 1.0)),
                    st.floats(1e-12, 1.0))


def prob_rows(min_k=1, max_k=40):
    @st.composite
    def rows(draw):
        k = draw(st.integers(min_k, max_k))
        w = draw(hnp.arrays(np.float64, (draw(st.integers(1, 6)), k), elements=WEIGHTS))
        w[w.sum(axis=-1) == 0.0] = 1.0
        return w / w.sum(axis=-1, keepdims=True)
    return rows()


@settings(max_examples=300, deadline=None)
@given(prob_rows())
@example(np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0]]))
def test_row_neg_entropy_matches_a_1d_sum(p):
    ours = _row_neg_entropy(p)
    assert [x.hex() for x in ours.tolist()] == [reference_neg_entropy(row).hex() for row in p]
    assert [x.hex() for x in ours.tolist()] == [neg_entropy(row).hex() for row in p]


@st.composite
def prob_pairs(draw):
    """(p, q) rows with supp(p) inside supp(q); q may have zeros of its own."""
    p = draw(prob_rows())
    q = draw(hnp.arrays(np.float64, p.shape, elements=WEIGHTS))
    q = np.where(p > 0.0, q + p, q)
    return p, q / q.sum(axis=-1, keepdims=True)


NINE = np.linspace(1.0, 2.0, 9) / 13.5


@settings(max_examples=300, deadline=None)
@given(prob_pairs())
# nine free coordinates, and a zero in p and in q (the 1-D fallback)
@example((np.array([np.full(9, 1.0 / 9), np.r_[0.0, np.full(8, 1.0 / 8)]]),
          np.array([NINE, np.r_[0.0, NINE[1:] / NINE[1:].sum()]])))
def test_row_divergence_matches_the_1d_functions(pq):
    p, q = pq
    for bregman, one in ((False, kl_div), (True, bregman_neg_entropy)):
        ours = _row_divergence(p, q, bregman)
        assert [x.hex() for x in ours.tolist()] == [one(a, b).hex() for a, b in zip(p, q)]


def test_row_divergence_refuses_a_support_mismatch():
    p = np.array([[0.5, 0.5], [0.5, 0.5]])
    q = np.array([[0.5, 0.5], [1.0, 0.0]])
    for bregman in (False, True):
        with pytest.raises(SupportMismatch):
            _row_divergence(p, q, bregman)


@settings(max_examples=400, deadline=None)
@given(prob_rows(), st.data())
# eps at 1/K: every row goes uniform; a K = 12 row with most entries free
@example(np.array([[0.0, 0.1, 0.2, 0.7]]), [1.0])
@example(np.array([np.r_[1e-9, np.full(11, (1.0 - 1e-9) / 11)]]), [0.5])
def test_truncate_rows_matches_a_1d_truncation(p, fractions):
    k = p.shape[-1]
    if not isinstance(fractions, list):
        fractions = fractions.draw(st.lists(
            st.one_of(st.just(1.0), st.floats(1e-9, 1.0)), min_size=len(p), max_size=len(p)))
    eps = np.array(fractions) / k
    ours = _truncate_rows(p.copy(), eps)
    for row, e, out in zip(p, eps, ours):
        assert out.tobytes() == reference_truncate(row, float(e)).tobytes()
        assert out.tobytes() == truncate(row, float(e)).probs.tobytes()


@pytest.mark.parametrize("k", [3, 7, 8, 9, 12, 15, 16, 17, 32, 128, 129])
def test_truncate_rows_on_dirichlet_rows(k):
    # with 8 or more free coordinates a sum over the row with zeros at the
    # fixed ones differs from the compacted sum on about half of these rows
    rng = np.random.default_rng(k)
    p = rng.dirichlet(np.ones(k), size=300)
    eps = rng.uniform(0.1, 1.0, 300) / k
    ours = _truncate_rows(p.copy(), eps)
    for row, e, out in zip(p, eps, ours):
        assert out.tobytes() == reference_truncate(row, float(e)).tobytes()
        assert out.tobytes() == truncate(row, float(e)).probs.tobytes()


def test_truncate_rows_checks_every_floor():
    p = np.full((3, 4), 0.25)
    for bad in (0.0, -1.0, 0.26, np.nan):
        with pytest.raises(InvalidEpsilon, match=f"floor {bad} outside"):
            _truncate_rows(p.copy(), np.array([0.1, bad, 0.2]))


def class_width(k):
    """The width of the regret checks' lockstep blocks that hold streams of K."""
    return 8 * (k // 8) + 7


def padded(rows, width, fill=0.0):
    out = np.full((len(rows), width), fill)
    out[:, :rows.shape[1]] = rows
    return out


@pytest.mark.parametrize("k", range(2, 25))
def test_pads_at_the_class_width_keep_the_row_bits(k):
    # numpy sums fewer than 8 entries left to right, more with 8 accumulators and
    # then a left-to-right tail: pads up to 8 floor(K/8) + 7 only lengthen that
    # tail by +0.0, where a wider pad (K = 5 at 15) would change the bracketing
    from driftsched.omd import _row_dots

    rng = np.random.default_rng(k)
    w = class_width(k)
    u = rng.dirichlet(np.ones(k), size=1400)
    g = rng.uniform(-1.0, 1.0, (1400, k))
    logits = rng.uniform(-50.0, 0.0, (1400, k))  # the max reads -inf pads
    for ours, want in [
        (np.maximum.reduce(padded(logits, w, -np.inf), -1), np.maximum.reduce(logits, -1)),
        (np.add.reduce(padded(u, w), -1), np.add.reduce(u, -1)),
        (_row_dots(padded(g, w), padded(u, w)), _row_dots(g, u)),
        (np.abs(np.diff(padded(u, w), axis=0)).sum(axis=1),
         np.abs(np.diff(u, axis=0)).sum(axis=1)),
    ]:
        assert_bits_equal(ours, want)


@pytest.mark.parametrize("width,ks", [(7, [2, 3, 5, 7, 4, 6]), (15, [8, 9, 12, 15, 11, 14]),
                                      (23, [16, 16, 16])])
def test_mirror_step_on_a_padded_block_keeps_each_row(width, ks):
    # a (B, W) block of streams of K <= W, zero-padded: every row takes the step
    # it takes alone, below the floor too, and its pads stay 0
    from driftsched.omd import _mirror_step

    rng = np.random.default_rng(width)
    ks = np.array(ks * 4)
    eps = 0.02
    real = np.arange(width) < ks[:, None]
    p = np.zeros((len(ks), width))
    g = np.full((len(ks), width), np.inf)  # pads: the lockstep's lam = -1 times log 0 + 1
    rows = []
    for b, k in enumerate(ks):
        p[b, :k] = truncate(rng.dirichlet(np.ones(k)), eps).probs
        g[b, :k] = rng.uniform(-1.0, 1.0, k) * (80.0 if b % 3 else 1.0)
        rows.append((np.log(p[b, :k]), g[b, :k].copy()))
    eta = rng.uniform(0.1, 1.0, (len(ks), 1))
    with np.errstate(divide="ignore"):
        logp = np.log(p)
    out = _mirror_step(logp, g, eta, np.where(real, eps, -np.inf), np.empty_like(p), ks)
    floored = set()
    for b, (k, (logp_b, g_b)) in enumerate(zip(ks, rows)):
        want = _mirror_step(logp_b[None], g_b[None], eta[b:b + 1], eps, np.empty((1, k)))[0]
        assert out[b, :k].tobytes() == want.tobytes()
        assert not out[b, k:].any()
        if (np.abs(want - eps) < 1e-15).any():
            floored.add(int(k))
    assert len(floored) > 1 or width == 23  # rows of two Ks truncated in one step
    assert floored
