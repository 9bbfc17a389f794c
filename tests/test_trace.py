import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftsched import RunTrace
from driftsched._version import __version__
from driftsched.trace import CSV_CHUNK
from trace_reference import reference_to_csv


def small_trace():
    return RunTrace(
        columns={
            "t": np.arange(1, 5),
            "lambda": np.array([0.05, 0.1, 0.2, 0.2]),
            "eval_return": np.array([np.nan, 1.5, np.nan, -2.0]),
            "pattern": np.asarray(["abrupt"] * 4, dtype=object),
        },
        meta={"seed": 3, "task": "demo"},
    )


class TestRunTrace:
    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            RunTrace(columns={"a": np.arange(3), "b": np.arange(4)})

    def test_len_and_access(self):
        tr = small_trace()
        assert len(tr) == 4
        assert tr.has("lambda") and not tr.has("zeta")
        assert tr.column("lambda")[2] == 0.2

    def test_csv_roundtrip(self, tmp_path):
        tr = small_trace()
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        back = RunTrace.from_csv(path)
        assert back.meta == tr.meta
        assert np.array_equal(back.column("t"), tr.column("t"))
        assert np.array_equal(back.column("lambda"), tr.column("lambda"))
        assert np.array_equal(back.column("eval_return"), tr.column("eval_return"),
                              equal_nan=True)
        assert list(back.column("pattern")) == ["abrupt"] * 4

    def test_version_stamp(self, tmp_path):
        path = tmp_path / "trace.csv"
        small_trace().to_csv(path)
        first = path.read_text().splitlines()[0]
        assert first == f"# driftsched={__version__}"

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        small_trace().to_csv(p1)
        small_trace().to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_stamp_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,lambda\n1,0.5\n")
        with pytest.raises(ValueError, match="stamp"):
            RunTrace.from_csv(path)


def reference_csv_rows(trace):
    """The row-by-row cell formatting of RunTrace.to_csv."""
    from driftsched.trace import _format_cell

    names = list(trace.columns)
    return [[_format_cell(trace.columns[n][i]) for n in names]
            for i in range(len(trace))]


class TestCsvFormatting:
    def test_column_slices_match_cell_formatting(self, tmp_path):
        import csv

        rng = np.random.default_rng(0)
        n = 2500  # more than two CSV_CHUNK slices
        edge = [10**15 - 1, 10**15, -10**15, -(10**15 - 1), 2**62, 0, 7]
        tr = RunTrace(columns={
            "t": np.arange(1, n + 1),
            "big": np.resize(edge, n),
            "unsigned": np.arange(n, dtype=np.uint64) * 10**13,
            "f": np.where(rng.random(n) < 0.3, np.nan,
                          rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n)),
            "whole": np.round(rng.normal(size=n) * 1e16),
            "f32": rng.random(n).astype(np.float32),
            "flag": rng.random(n) < 0.5,
            "obj": np.asarray([["a,b", 1, 2.0, np.int64(7), np.nan, True][i % 6]
                               for i in range(n)], dtype=object),
            "pattern": np.asarray(["steady"] * n),
        })
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        assert rows[0] == list(tr.columns)
        assert rows[1:] == reference_csv_rows(tr)
        assert rows[1][list(tr.columns).index("flag")] in ("1.0", "0.0")

    def test_repeats_and_broadcasts_match_cell_formatting(self, tmp_path):
        # to_csv formats a broadcast column, and each run of equal float bits,
        # once; -0.0 and 0.0 keep their own text and every NaN bit pattern writes ""
        import csv

        rng = np.random.default_rng(1)
        n = 2500
        payload_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
        pool = np.array([0.0, -0.0, np.nan, -np.nan, payload_nan, 1.5, np.inf, -np.inf,
                         5e-324, 1e16])
        tr = RunTrace(columns={
            "t": np.arange(1, n + 1),
            "runs": np.repeat(rng.choice(pool, n // 10 + 1), 10)[:n],
            "mixed": rng.choice(pool, n),
            "strided": np.repeat(rng.choice(pool, n), 3).reshape(-1, 2)[:n, 1],
            "f32": np.repeat(rng.random(n // 5 + 1).astype(np.float32), 5)[:n],
            "flat": np.broadcast_to(0.25, n),
            "flat_nan": np.broadcast_to(np.nan, n),
            "flat_neg_zero": np.broadcast_to(-0.0, n),
            "seed": np.broadcast_to(np.array(7), n),
            "pattern": np.broadcast_to(np.array("a,b", dtype=object), n),
        })
        assert tr.column("strided").strides == (16,)
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        assert rows[1:] == reference_csv_rows(tr)
        assert {row[2] for row in rows[1:]} == {"0.0", "-0.0", "", "1.5", "inf", "-inf",
                                                "5e-324", "1e+16"}

    def test_infinities_round_trip(self, tmp_path):
        vals = np.array([np.inf, -np.inf, 1.5, np.nan])
        tr = RunTrace(columns={"t": np.arange(1, 5), "x": vals,
                               "o": np.asarray([np.inf, 1, 2.5, -np.inf], dtype=object)})
        path = tmp_path / "inf.csv"
        tr.to_csv(path)
        back = RunTrace.from_csv(path)
        assert np.array_equal(back.column("x"), vals, equal_nan=True)
        assert np.array_equal(back.column("o"), [np.inf, 1.0, 2.5, -np.inf])
        assert path.read_text().splitlines()[3] == "1,inf,inf"

    def test_numpy_scalar_meta_round_trip(self, tmp_path):
        meta = {"eval_every": np.int64(10), "learn_rate": np.float32(0.25),
                "mu": np.float64(0.2), "flag": np.bool_(True), "seed": 3}
        path = tmp_path / "np.csv"
        RunTrace(columns={"t": np.arange(1, 4)}, meta=meta).to_csv(path)
        back = RunTrace.from_csv(path)
        assert back.meta == {"eval_every": 10, "learn_rate": 0.25, "mu": 0.2,
                             "flag": True, "seed": 3}
        assert type(back.meta["eval_every"]) is int
        # the same bytes as the meta given as Python values
        plain = tmp_path / "plain.csv"
        RunTrace(columns={"t": np.arange(1, 4)}, meta=back.meta).to_csv(plain)
        assert plain.read_bytes() == path.read_bytes()

    def test_unserializable_meta_writes_nothing(self, tmp_path):
        path = tmp_path / "bad.csv"
        tr = RunTrace(columns={"t": np.arange(1, 4)}, meta={"obj": object()})
        with pytest.raises(TypeError, match="not JSON serializable"):
            tr.to_csv(path)
        assert not path.exists()

    def test_td_trace_with_numpy_knob_writes(self, tmp_path):
        from driftsched import DriftSpec, ScheduleConfig, SoftMdpSequence, goal_chain_mdp, td_train

        spec = SoftMdpSequence(base=goal_chain_mdp(), pattern="steady", horizon=60,
                               drift=DriftSpec(), seed=0)
        tr = td_train(spec, ScheduleConfig(mode="fixed"), np.int64(10), 20, 7)
        tr.to_csv(tmp_path / "td.csv")
        back = RunTrace.from_csv(tmp_path / "td.csv")
        assert back.meta["batch_size"] == 10
        assert np.array_equal(back.column("lambda"), tr.column("lambda"))


NASTY_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e15 - 1, 1e15, -1e15, 1e16, 0.25]),
    # NaN of every payload and either sign
    st.tuples(st.booleans(), st.integers(1, 2**52 - 1)).map(
        lambda p: np.array([(p[0] << 63) | (0x7FF << 52) | p[1]], np.uint64).view(np.float64)[0]),
)
INT64_EDGES = st.one_of(
    st.sampled_from([10**15 - 1, 10**15, 10**15 + 1, -(10**15 - 1), -10**15, -10**15 - 1, 0]),
    st.integers(-2**63, 2**63 - 1),
)
CSV_TEXT = st.text(st.one_of(st.sampled_from(list('ab ,"\r\n\t')),
                           st.characters(exclude_categories=["Cs"])),  # UTF-8 encodable
                   max_size=5)
FLOAT32S = st.floats(width=32, allow_nan=True, allow_infinity=True, allow_subnormal=True)
OBJECT_CELLS = st.one_of(CSV_TEXT, NASTY_FLOATS, INT64_EDGES, st.booleans(),
                         INT64_EDGES.map(np.int64), FLOAT32S.map(np.float32))
# a kind of column and the pool of values its entries are drawn from
POOLS = {
    "f64": NASTY_FLOATS, "f32": FLOAT32S, "runs": NASTY_FLOATS, "i64": INT64_EDGES,
    "u64": st.integers(0, 2**64 - 1), "bool": st.booleans(), "obj": OBJECT_CELLS,
    "str": CSV_TEXT, "flat_f64": NASTY_FLOATS, "flat_i64": INT64_EDGES, "flat_obj": CSV_TEXT,
}


def pooled_column(kind, pool, n, rng):
    """An n-entry column of the given kind, its entries drawn from pool."""
    if kind.startswith("flat_"):
        dtype = {"flat_f64": np.float64, "flat_i64": np.int64, "flat_obj": object}[kind]
        return np.broadcast_to(np.array(pool[0], dtype=dtype), n)
    dtype = {"f64": np.float64, "f32": np.float32, "runs": np.float64, "i64": np.int64,
             "u64": np.uint64, "bool": bool, "obj": object, "str": str}[kind]
    values = np.empty(len(pool), dtype=object)
    values[:] = pool
    picks = values[rng.integers(0, len(pool), n)]
    if kind == "runs":  # runs of equal bits, some runs crossing a chunk edge
        picks = np.repeat(picks, 7)[:n]
    return np.array(picks.tolist(), dtype=dtype)


@st.composite
def traces(draw):
    n = draw(st.one_of(st.integers(0, 4), st.sampled_from(
        [k * CSV_CHUNK + d for k in (1, 2) for d in (-1, 0, 1)])))
    names = draw(st.lists(CSV_TEXT, max_size=5, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for name in names:
        kind = draw(st.sampled_from(sorted(POOLS)))
        pool = draw(st.lists(POOLS[kind], min_size=1, max_size=6))
        columns[name] = pooled_column(kind, pool, n, rng)
    return RunTrace(columns=columns, meta={"seed": 3})


def written_bytes(write, trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        write(trace, path)
        with open(path, "rb") as fh:
            return fh.read()


class TestCsvWriterBytes:
    """to_csv writes exactly the bytes of the csv.writer form it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(traces())
    @example(RunTrace(columns={}))
    @example(RunTrace(columns={
        'a,"b"': np.asarray(["x,y", 'say "hi"', "two\nlines", "cr\r", ""], dtype=object),
        "pattern": np.broadcast_to(np.array('p,"q"', dtype=object), 5),
        "t": np.arange(1, 6),
    }))
    def test_matches_reference_writer(self, trace):
        assert written_bytes(RunTrace.to_csv, trace) == written_bytes(reference_to_csv, trace)

    @pytest.mark.parametrize("n", [0, 1, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1])
    def test_one_empty_column(self, n):
        # csv writes a row of one empty cell as "", so it reads back as a row
        tr = RunTrace(columns={"": np.full(n, np.nan)})
        data = written_bytes(RunTrace.to_csv, tr)
        assert data == written_bytes(reference_to_csv, tr)
        assert data.split(b"\n", 2)[2] == b'""\r\n' * (n + 1)
