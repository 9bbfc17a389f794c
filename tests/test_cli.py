import json
import math

import numpy as np
import pytest

from driftsched import ConfigError, RunTrace, UnknownKey
from driftsched.cli import main, parse_config


def base_config(out_dir, horizon=300, seeds=(0,)):
    return {
        "task": {
            "kind": "goal_chain", "n_states": 5, "n_actions": 3,
            "gamma": 0.9, "mu": 0.2,
            "patterns": ["steady", "abrupt"],
            "drift": {"change_times": [150], "jitter": 0.0},
        },
        "methods": [
            {"name": "adaptive_td", "agent": "td",
             "schedule": {"mode": "online", "C1": 0.04, "lambda_min": 0.05,
                          "lambda_max": 1.0, "ema_beta": 0.9}},
            {"name": "fixed_td", "agent": "td",
             "schedule": {"mode": "fixed", "fixed_value": 0.05}},
        ],
        "seeds": list(seeds),
        "horizon": horizon,
        "batch_size": 10,
        "eval_every": 50,
        "episode_len": 25,
        "learn_rate": 0.25,
        "output_dir": str(out_dir),
    }


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_happy_path(self, tmp_path):
        cfg = parse_config(base_config(tmp_path))
        assert cfg.task_name == "goal_chain-5x3"
        assert len(cfg.methods) == 2

    def test_lambda_range_error_names_keys(self, tmp_path):
        doc = base_config(tmp_path)
        doc["methods"][0]["schedule"] = {"lambda_min": 2.0, "lambda_max": 1.0}
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert "lambda_min" in str(err.value) and "lambda_max" in str(err.value)

    def test_missing_key(self, tmp_path):
        doc = base_config(tmp_path)
        del doc["horizon"]
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(doc)

    def test_unknown_schedule_key(self, tmp_path):
        doc = base_config(tmp_path)
        doc["methods"][0]["schedule"]["warp"] = 9
        with pytest.raises(ConfigError, match="warp"):
            parse_config(doc)

    def test_bad_pattern(self, tmp_path):
        doc = base_config(tmp_path)
        doc["task"]["patterns"] = ["sideways"]
        with pytest.raises(ConfigError, match="sideways"):
            parse_config(doc)

    def test_periodic_needs_period(self, tmp_path):
        doc = base_config(tmp_path)
        doc["task"]["patterns"] = ["periodic"]
        with pytest.raises(ConfigError, match="period"):
            parse_config(doc)

    def planner_config(self, tmp_path, eps):
        doc = base_config(tmp_path)
        doc["task"] = {"kind": "random", "n_states": 6, "n_actions": 4,
                       "patterns": ["steady"]}
        doc["methods"] = [{"name": "planner", "agent": "planner"}]
        doc["eps"] = eps
        return doc

    @pytest.mark.parametrize("eps", [0.5, -1e-6, math.nan, math.inf, "x", True])
    def test_planner_eps_outside_floor_range(self, tmp_path, eps):
        with pytest.raises(ConfigError, match="eps"):
            parse_config(self.planner_config(tmp_path, eps))

    @pytest.mark.parametrize("eps", [0, 0.0, 1e-6, 0.25])
    def test_planner_eps_in_range(self, tmp_path, eps):
        assert parse_config(self.planner_config(tmp_path, eps)).eps == eps

    def test_td_only_config_ignores_eps(self, tmp_path):
        doc = base_config(tmp_path)
        doc["eps"] = 0.5
        assert parse_config(doc).eps == 0.5

    def test_empty_task_dimensions(self, tmp_path):
        doc = self.planner_config(tmp_path, 1e-6)
        doc["task"]["n_actions"] = 0
        with pytest.raises(ConfigError, match="n_actions"):
            parse_config(doc)

    @pytest.mark.parametrize("key,value", [
        ("batch_size", 0), ("episode_len", 0), ("learn_rate", math.nan),
        ("eval_every", 301), ("batch_size", 2.5), ("batch_size", True),
        ("learn_rate", -1),
    ])
    def test_td_knobs_rejected_before_any_file(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        doc = base_config(out)
        doc[key] = value
        with pytest.raises(ConfigError, match=key):
            parse_config(doc)
        assert main(["run", write_config(tmp_path, doc)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_td_needs_two_evaluation_points(self, tmp_path):
        doc = base_config(tmp_path, horizon=300)
        # a change after the first evaluation point, which recovery_time needs
        doc["task"]["drift"]["change_times"] = [200]
        doc["eval_every"] = 150
        assert parse_config(doc).eval_every == 150
        doc["eval_every"] = 151
        with pytest.raises(ConfigError, match="two evaluation points"):
            parse_config(doc)

    def test_change_time_must_fit_horizon(self, tmp_path):
        doc = base_config(tmp_path)
        doc["task"]["drift"]["change_times"] = [10 ** 6]
        with pytest.raises(ConfigError, match="change_times"):
            parse_config(doc)


class TestRunCommand:
    def test_minimal_run(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out)
        doc["task"]["patterns"] = ["steady"]
        doc["methods"] = doc["methods"][:1]
        code = main(["run", write_config(tmp_path, doc)])
        assert code == 0
        assert (out / "trace_adaptive_td_steady_seed0.csv").exists()
        assert (out / "summary.csv").exists()

    def test_cell_count(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, seeds=(0, 1, 2))
        code = main(["run", write_config(tmp_path, doc)])
        assert code == 0
        traces = list(out.glob("trace_*.csv"))
        assert len(traces) == 2 * 2 * 3  # methods x patterns x seeds

    def test_planner_eps_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = base_config(out, horizon=20)
        doc["task"] = {"kind": "random", "n_states": 4, "n_actions": 4,
                       "patterns": ["steady"]}
        doc["methods"] = [{"name": "planner", "agent": "planner"}]
        doc["eps"] = 0.5
        assert main(["run", write_config(tmp_path, doc)]) == 2
        assert "eps" in capsys.readouterr().err
        assert not out.exists()

    def test_change_before_first_td_evaluation_exit_code(self, tmp_path, capsys):
        # recovery_time needs an evaluation point before each change time
        out = tmp_path / "out"
        doc = base_config(out, horizon=200)
        doc["task"]["drift"]["change_times"] = [20]
        assert main(["run", write_config(tmp_path, doc)]) == 2
        assert "change time 20" in capsys.readouterr().err
        assert not out.exists()
        doc["eval_every"] = 20  # the first evaluation falls on the change
        with pytest.raises(ConfigError, match="before change time 20"):
            parse_config(doc)
        doc["eval_every"] = 19
        assert parse_config(doc).eval_every == 19
        doc["task"]["patterns"] = ["steady"]  # no change to recover from
        doc["eval_every"] = 50
        assert parse_config(doc).eval_every == 50

    def test_config_error_exit_code(self, tmp_path):
        doc = base_config(tmp_path)
        doc["methods"][0]["schedule"]["lambda_min"] = 5.0
        assert main(["run", write_config(tmp_path, doc)]) == 2

    def test_bit_identical_reruns(self, tmp_path):
        doc = base_config(tmp_path / "a", horizon=200)
        cfg_path = write_config(tmp_path, doc)
        assert main(["run", cfg_path, "--out", str(tmp_path / "r1")]) == 0
        assert main(["run", cfg_path, "--out", str(tmp_path / "r2")]) == 0
        for name in ("trace_adaptive_td_abrupt_seed0.csv", "summary.csv"):
            b1 = (tmp_path / "r1" / name).read_bytes()
            b2 = (tmp_path / "r2" / name).read_bytes()
            assert b1 == b2

    def test_jobs_do_not_change_bytes(self, tmp_path):
        doc = base_config(tmp_path / "unused", horizon=200, seeds=(0, 1))
        # two planner methods: each (pattern, seed) group holds two cells
        doc["methods"] += [{"name": "planner", "agent": "planner"},
                           {"name": "fixed_planner", "agent": "planner",
                            "schedule": {"mode": "fixed", "fixed_value": 0.2}}]
        cfg_path = write_config(tmp_path, doc)
        assert main(["run", cfg_path, "--out", str(tmp_path / "j1")]) == 0
        assert main(["run", cfg_path, "--out", str(tmp_path / "j2"), "--jobs", "2"]) == 0
        names = sorted(p.name for p in (tmp_path / "j1").iterdir())
        assert len(names) == 4 * 2 * 2 + 1
        assert names == sorted(p.name for p in (tmp_path / "j2").iterdir())
        for name in names:
            assert (tmp_path / "j1" / name).read_bytes() == (tmp_path / "j2" / name).read_bytes()

    def test_summary_schema_and_values(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", write_config(tmp_path, base_config(out))])
        assert code == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("# driftsched=")
        assert lines[1] == "task,pattern,method,seed,nauc,drop_ratio,recovery"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 4
        steady = [r for r in rows if r[1] == "steady"]
        for r in steady:
            assert float(r[5]) == 0.0  # drop ratio of the steady run itself
            assert float(r[6]) == 0.0  # no change points on steady

    def test_all_patterns_both_agents(self, tmp_path):
        out = tmp_path / "out"
        doc = {
            "task": {"kind": "random", "n_states": 4, "n_actions": 3,
                     "patterns": ["steady", "abrupt", "linear", "periodic", "mixed"],
                     "drift": {"change_times": [100], "magnitude": 0.4,
                               "period": 60, "amplitude": 0.4,
                               "transition_drift": True}},
            "methods": [
                {"name": "adaptive_planner", "agent": "planner",
                 "schedule": {"mode": "online"}},
                {"name": "adaptive_td", "agent": "td",
                 "schedule": {"mode": "online"}},
            ],
            "seeds": [0], "horizon": 200, "eval_every": 40,
            "output_dir": str(out),
        }
        assert main(["run", write_config(tmp_path, doc)]) == 0
        assert len(list(out.glob("trace_*.csv"))) == 10

    def test_trace_columns(self, tmp_path):
        out = tmp_path / "out"
        main(["run", write_config(tmp_path, base_config(out))])
        tr = RunTrace.from_csv(out / "trace_fixed_td_abrupt_seed0.csv")
        for col in ("t", "lambda", "eta", "alpha", "proxy", "regret_inc",
                    "regret_cum", "eval_return", "regret_rl_inc", "pattern", "seed"):
            assert tr.has(col), col
        assert set(tr.column("pattern")) == {"abrupt"}


class TestSweepCommand:
    def test_sweep_blocks(self, tmp_path):
        doc = base_config(tmp_path / "out", horizon=200)
        doc["task"]["patterns"] = ["steady"]
        doc["methods"] = doc["methods"][:1]
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "sweep"
        code = main(["sweep", cfg_path, "--param", "quantile_q",
                     "--values", "0.5,0.7,0.9", "--out", str(out)])
        assert code == 0
        combined = (out / "sweep_summary.csv").read_text().splitlines()
        assert combined[1].endswith("sweep_param,sweep_value")
        body = combined[2:]
        assert len(body) == 3  # one cell per value
        assert {line.split(",")[-1] for line in body} == {"0.5", "0.7", "0.9"}
        for v in ("0.5", "0.7", "0.9"):
            assert (out / f"sweep_quantile_q={v}" / "summary.csv").exists()

    def test_empty_values_noop(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["sweep", cfg_path, "--param", "quantile_q", "--values", ""]) == 0

    def test_unknown_key(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["sweep", cfg_path, "--param", "zeta", "--values", "1,2"]) == 2


class TestVerifyCommand:
    def test_json_output(self, capsys):
        code = main(["verify", "--json", "--seed", "0"])
        assert code == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 24
        assert all(d["passed"] for d in docs)

    def test_table_output(self, capsys):
        code = main(["verify", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "checks passed" in out

    def test_deterministic(self, capsys):
        main(["verify", "--json", "--seed", "3"])
        first = capsys.readouterr().out
        main(["verify", "--json", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second
