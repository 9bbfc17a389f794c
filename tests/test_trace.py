import numpy as np
import pytest

from driftsched import RunTrace
from driftsched._version import __version__


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
