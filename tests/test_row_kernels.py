"""The numpy log-sum-exp and softmax kernels against scipy, bit for bit.

scipy is a test-only oracle here: the library itself must not import it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

import driftsched
from driftsched import log_sum_exp, soft_policy, soft_values, softmax
from driftsched.simplex import _row_lse, _row_softmax

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
