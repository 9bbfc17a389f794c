import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftsched
from driftsched import ConfigError, NoConvergence, RunTrace, UnknownKey, cli
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

    @pytest.mark.parametrize("where,value,match", [
        (("horzion",), 300, "unknown key horzion"),
        (("task", "goal"), 0, "unknown key task.goal"),
        (("task", "drift", "shift"), 1.0, "unknown key task.drift.shift"),
        (("methods", 0, "shedule"), {}, r"unknown key methods\[0\].shedule"),
        (("task", "gamma"), 1.0, "task.gamma"),
        (("task", "gamma"), 0.0, "task.gamma"),
        (("task", "gamma"), "x", "task.gamma"),
        (("task", "mu"), 0, "task.mu"),
        (("task", "mu"), math.inf, "task.mu"),
        (("task", "r_max"), math.nan, "task.r_max"),
        (("task", "r_max"), -1.0, "task.r_max"),
        (("solver_tol",), 0, "solver_tol"),
        (("solver_tol",), math.nan, "solver_tol"),
        (("task", "drift", "jitter"), -1, "task.drift.jitter"),
        (("task", "drift", "jitter"), math.inf, "task.drift.jitter"),
        (("seeds",), [0, True], "seeds"),
        (("horizon",), True, "horizon must be int"),
        (("task", "n_states"), True, "task.n_states"),
        (("task", "n_actions"), 3.0, "task.n_actions"),
        (("task", "drift", "period"), 8.5, "task.drift.period"),
        (("task", "drift", "period"), True, "task.drift.period"),
        (("task", "drift", "period"), -1, "task.drift.period"),
        (("task", "drift", "jitter"), math.nan, "task.drift.jitter"),
        (("task", "drift", "magnitude"), "x", "task.drift.magnitude"),
        (("task", "drift", "magnitude"), 1.5, "task.drift.magnitude"),
        (("task", "drift", "amplitude"), math.nan, "task.drift.amplitude"),
        (("task", "drift", "jitter"), "0", "task.drift.jitter"),
        (("task", "drift", "change_times"), ["10"], "task.drift.change_times"),
        (("task", "drift", "change_times"), [10.0], "task.drift.change_times"),
        (("task", "drift", "change_times"), 10, "task.drift.change_times"),
        (("task", "drift", "reward_drift"), "no", "task.drift.reward_drift"),
        (("task", "drift", "transition_drift"), 1, "task.drift.transition_drift"),
        (("methods", 0, "schedule", "C1"), "x", r"methods\[0\].schedule.C1"),
        (("methods", 0, "schedule", "C2"), 0.0, r"methods\[0\].schedule.C2"),
        (("methods", 0, "schedule", "c"), math.inf, r"methods\[0\].schedule.c="),
        (("methods", 0, "schedule", "lambda_min"), True, r"methods\[0\].schedule.lambda_min"),
        (("methods", 0, "schedule", "lambda_max"), "1", r"methods\[0\].schedule.lambda_max"),
        (("methods", 0, "schedule", "quantile_q"), "x", r"methods\[0\].schedule.quantile_q"),
        (("methods", 0, "schedule", "quantile_q"), 1.5, r"methods\[0\].schedule.quantile_q"),
        (("methods", 0, "schedule", "ema_beta"), "x", r"methods\[0\].schedule.ema_beta"),
        (("methods", 0, "schedule", "ema_beta"), 1.0, r"methods\[0\].schedule.ema_beta"),
        (("methods", 0, "schedule", "fixed_value"), math.nan,
         r"methods\[0\].schedule.fixed_value"),
        (("methods", 1, "schedule", "fixed_value"), 0, r"methods\[1\].schedule.fixed_value"),
        (("methods", 0, "schedule"), [], r"methods\[0\].schedule must be dict"),
        (("methods", 1), 5, r"methods\[1\] must be an object"),
        (("output_dir",), 5, "output_dir must be str"),
        (("task", "patterns"), 5, "task.patterns must be list"),
        (("seeds",), [0, -1], "seeds"),
        (("task", "n_states"), 10 ** 400, "task.n_states"),
        (("learn_rate",), -10 ** 400, "learn_rate"),
        (("methods", 0, "schedule", "C1"), 10 ** 400, r"methods\[0\].schedule.C1"),
        (("methods",), [], "methods must be a nonempty list"),
        (("task", "patterns"), [], "task.patterns"),
        (("task", "patterns"), ["steady", "steady"], "task.patterns"),
        (("seeds",), [0, 0, 1], "seeds"),
        # an empty path merges the value into the config root
        ((), {"horizon": 1, "methods": [{"name": "p", "agent": "planner",
                                         "schedule": {"mode": "fixed"}}],
              "task": {"kind": "random", "n_states": 4, "n_actions": 3}},
         "horizon=1 gives planner runs fewer than two evaluation points"),
    ])
    def test_bad_input_rejected_before_any_file(self, tmp_path, capsys, where, value,
                                                match):
        out = tmp_path / "out"
        doc = base_config(out)
        node = doc
        for name in where[:-1]:
            node = node[name]
        if where:
            node[where[-1]] = value
        else:
            doc.update(value)
        with pytest.raises(ConfigError, match=match):
            parse_config(doc)
        assert main(["run", write_config(tmp_path, doc)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("agent,mode,match", [
        ("td", "oracle", "true drift"),
        ("td", "offline", "mode must be one of"),
        ("planner", "offline", "mode must be one of"),
    ])
    def test_schedule_its_agent_cannot_run(self, tmp_path, capsys, agent, mode, match):
        out = tmp_path / "out"
        doc = base_config(out)
        doc["methods"][0].update(agent=agent, schedule={"mode": mode})
        with pytest.raises(ConfigError, match=match):
            parse_config(doc)
        assert main(["run", write_config(tmp_path, doc)]) == 2
        assert match in capsys.readouterr().err
        assert not out.exists()

    def test_change_time_must_fit_horizon(self, tmp_path):
        doc = base_config(tmp_path)
        doc["task"]["drift"]["change_times"] = [10 ** 6]
        with pytest.raises(ConfigError, match="change_times"):
            parse_config(doc)


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config():
    """The minimal config the README shows, read from its first json block."""
    return json.loads(README.read_text().split("```json\n", 1)[1].split("```", 1)[0])


def schema_keys(schema):
    """Every key of a config schema table and of the tables nested in it."""
    for key, (kind, *_) in schema.items():
        yield key
        if isinstance(kind, list):
            kind = kind[0]
        if isinstance(kind, dict):
            yield from schema_keys(kind)


def test_readme_names_every_config_key():
    # a key is named as `key` or as the last part of a path such as `task.gamma`
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    named = {span.rsplit(".", 1)[-1] for span in spans}
    assert [key for key in schema_keys(cli._CONFIG) if key not in named] == []


JSON_VALUES = st.recursive(
    # JSON numbers include ints no float can hold
    st.none() | st.booleans() | st.integers() | st.integers(-10**400, 10**400)
    | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)


def json_nodes(doc, parent=None, key=None):
    """(container, key, is_key) for every value and every object key under doc."""
    if parent is not None:
        yield parent, key, False
    if isinstance(doc, dict):
        for k, v in list(doc.items()):
            yield doc, k, True
            yield from json_nodes(v, doc, k)
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from json_nodes(v, doc, i)


@settings(max_examples=1500, deadline=None)
@given(st.data())
def test_parse_config_mutated_readme_config(data):
    # one leaf, subtree or key of a valid config replaced by any JSON value
    # (a key by any string): the config parses or raises ConfigError
    doc = readme_config()
    parent, key, is_key = data.draw(st.sampled_from(list(json_nodes(doc))))
    if is_key:
        parent[data.draw(st.text())] = parent.pop(key)
    else:
        parent[key] = data.draw(JSON_VALUES)
    try:
        parse_config(doc)
    except ConfigError:
        pass


def golden_run_config(name, out_dir):
    """Configs whose run output is pinned: TD traces longer than two
    CSV_CHUNKs, alone and beside steady twins that share their cfg, seed
    and MDPs until the change, a random-task planner run with one job per
    pattern, and the benchmark's planner_drift cells on a short horizon."""
    if name in ("td_goal_chain", "td_twins"):
        doc = base_config(out_dir, horizon=2100, seeds=(0, 1) if name == "td_twins" else (0,))
        if name == "td_goal_chain":
            doc["task"]["patterns"] = ["abrupt"]
        doc["task"]["drift"]["change_times"] = [1000]
        return doc
    if name == "drifting_planners":
        return {
            "task": {"kind": "random", "n_states": 30, "n_actions": 4,
                     "gamma": 0.9, "mu": 0.2, "patterns": ["periodic", "abrupt"],
                     "drift": {"change_times": [20], "magnitude": 1.0, "period": 10,
                               "amplitude": 0.5, "reward_drift": True,
                               "transition_drift": True}},
            "methods": [{"name": "adaptive_planner", "agent": "planner",
                         "schedule": {"mode": "online", "lambda_min": 0.05,
                                      "lambda_max": 1.0}},
                        {"name": "fixed_planner", "agent": "planner",
                         "schedule": {"mode": "fixed", "fixed_value": 0.1}}],
            "seeds": [7], "horizon": 40, "eps": 1e-6, "solver_tol": 1e-9,
            "output_dir": str(out_dir),
        }
    return {
        "task": {"kind": "random", "n_states": 4, "n_actions": 3,
                 "patterns": ["abrupt", "periodic"],
                 "drift": {"change_times": [30], "magnitude": 0.5, "period": 20,
                           "amplitude": 0.4, "transition_drift": True}},
        "methods": [{"name": "adaptive_planner", "agent": "planner",
                     "schedule": {"mode": "online"}}],
        "seeds": [0], "horizon": 60,
        "output_dir": str(out_dir),
    }


GOLDEN_RUN_DIGESTS = {
    "drifting_planners": {
        "summary.csv": "1b6306f7188526d8c32ec42bab4c2d42cffaa7f0804aa45ff202554b012587ae",
        "trace_adaptive_planner_abrupt_seed7.csv":
            "f3139c21d0a05e31470b31f0faa73e41350e4a6801f401a2336dca24de43c186",
        "trace_adaptive_planner_periodic_seed7.csv":
            "4859f7778c01fd4f0c427886d4ba52107985b3563487e1d6bcba54bd6d7c2dbf",
        "trace_fixed_planner_abrupt_seed7.csv":
            "7057a3b9e88f5a886533121a8855ba18d3829540f1edbd0241600749441b53ef",
        "trace_fixed_planner_periodic_seed7.csv":
            "59ecfb405c20f7de9ef0cf24c3e0c87882895c7e8955a5b2983611c7edac69a5",
    },
    "td_goal_chain": {
        "summary.csv": "d57222a76bfa48e891d893df63aa169d0ed195c021c18da363a98759deb40183",
        "trace_adaptive_td_abrupt_seed0.csv":
            "315c1a23ba9eb0918abc42b8a8c82d90e7ca08562fc2ae89e88b0e0b111e155d",
        "trace_fixed_td_abrupt_seed0.csv":
            "77ce5a5e667ef2555b2b928b5312bcf0960a820fe48b448dec5fd31334ec9e43",
    },
    # taken before twins shared lanes in td_train_many
    "td_twins": {
        "summary.csv": "80c348de88a96e66dec85f850c76af681ea1ae67222f5403727a9b2ccad14359",
        "trace_adaptive_td_abrupt_seed0.csv":
            "315c1a23ba9eb0918abc42b8a8c82d90e7ca08562fc2ae89e88b0e0b111e155d",
        "trace_adaptive_td_abrupt_seed1.csv":
            "d6f55a3720dadcff15a1c5f60492868fdc621c45cc7adfdc30396caa72016cf9",
        "trace_adaptive_td_steady_seed0.csv":
            "081fb1574b878fe16b5ed618bca5a5608c05d1c11c75735879e04385a69e1555",
        "trace_adaptive_td_steady_seed1.csv":
            "e8067c881207df79f7e4a84a3aa4208ae705ec8db0fe8cd7e36a9da7c7c24b0d",
        "trace_fixed_td_abrupt_seed0.csv":
            "77ce5a5e667ef2555b2b928b5312bcf0960a820fe48b448dec5fd31334ec9e43",
        "trace_fixed_td_abrupt_seed1.csv":
            "4f1016b3d62a2d8777aed905dbaab454bd59af573819996d7ac14894ba3d4ffe",
        "trace_fixed_td_steady_seed0.csv":
            "479e3d9a28db365dcc0347b432bf0171173e0fc5db6808236170e1d070b9fd80",
        "trace_fixed_td_steady_seed1.csv":
            "c57d51d63393cfbe30f7011064c5bc8f326680f21f7c871bc8b2458c8f69195f",
    },
    "random_planner": {
        "summary.csv": "dcec9cabbe43a142d2f954ace2d263181210c96577bf53b1d16eacbcde50f99c",
        "trace_adaptive_planner_abrupt_seed0.csv":
            "8779a099435def25dc8f401947f2bdd4042976e1429bc1d22a2b8c4294b8d4e4",
        "trace_adaptive_planner_periodic_seed0.csv":
            "1d5601c242f189141dd296692d1c6bdac527d918899535e4492f49fd8beffd8f",
    },
}


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

    @pytest.mark.parametrize("text,match", [
        (b"5", "config must be an object, got 5"),
        (b"null", "config must be an object, got None"),
        (b'"abc"', "config must be an object, got 'abc'"),
        (b"[1]", r"config must be an object, got \[1\]"),
        (b"\xff", "config is not valid JSON"),
    ])
    def test_config_root_not_an_object(self, tmp_path, monkeypatch, capsys, text, match):
        monkeypatch.chdir(tmp_path)  # where the default output_dir "out" would go
        path = tmp_path / "config.json"
        path.write_bytes(text)
        for argv in (["run", str(path)],
                     ["sweep", str(path), "--param", "horizon", "--values", "100"]):
            assert main(argv) == 2
            [line] = capsys.readouterr().err.splitlines()
            assert re.match("config error: " + match, line)
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("given,repeat", [
        ('"horizon": 300', '"horizon": 200'),
        ('"jitter": 0.0', '"jitter": 0.5'),
    ])
    def test_repeated_key_rejected(self, tmp_path, capsys, given, repeat):
        out = tmp_path / "out"
        text = json.dumps(base_config(out))
        assert text.count(given) == 1
        path = tmp_path / "config.json"
        path.write_text(text.replace(given, f"{given}, {repeat}"))
        assert main(["run", str(path)]) == 2
        key = given.split(":")[0].strip('"')
        assert f"config repeats key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path):
        doc = base_config(tmp_path)
        doc["methods"][0]["schedule"]["lambda_min"] = 5.0
        assert main(["run", write_config(tmp_path, doc)]) == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_diverging_run_prints_one_line(self, tmp_path, jobs):
        # the learner overflows: exit 1 with one line on stderr, no warnings
        # and no traceback, also from a worker process
        doc = base_config(tmp_path / "out", horizon=400)
        doc["task"].update(gamma=0.99, patterns=["steady"])
        doc["learn_rate"] = 1e6
        src = str(Path(driftsched.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "driftsched.cli", "run", write_config(tmp_path, doc),
             "--jobs", jobs],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "run error: TD errors are not finite: the learner diverged"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_memory_error_prints_one_line(self, tmp_path, jobs):
        # the weight path of 10^15 steps cannot be allocated: numpy refuses
        # the request at once, and main reports it as a run error
        doc = base_config(tmp_path / "out", horizon=10**15)
        src = str(Path(driftsched.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "driftsched.cli", "run", write_config(tmp_path, doc),
             "--jobs", jobs],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("run error: Unable to allocate")

    @pytest.mark.parametrize("command", [[], ["--param", "horizon", "--values", "200"]])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, command, jobs):
        out = tmp_path / "out"
        argv = ["sweep" if command else "run", write_config(tmp_path, base_config(out)),
                *command, "--jobs", jobs]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: jobs={jobs} must be >= 1\n"
        assert not out.exists()

    def test_pool_no_larger_than_the_job_count(self, tmp_path, monkeypatch):
        # --jobs 64 on two planner groups, one per pattern; the fake pool
        # maps serially, so no process starts
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
        doc = base_config(tmp_path / "out", horizon=20)
        doc["task"] = {"kind": "random", "n_states": 4, "n_actions": 3,
                       "patterns": ["steady", "linear"]}
        doc["methods"] = [{"name": "planner", "agent": "planner"}]
        assert main(["run", write_config(tmp_path, doc), "--jobs", "64"]) == 0
        assert started == [2]
        assert len(list((tmp_path / "out").glob("trace_*.csv"))) == 2

    def test_solver_failure_exit_code(self, monkeypatch, capsys):
        from driftsched import cli

        def no_convergence(seed):
            raise NoConvergence("soft policy iteration did not converge")

        monkeypatch.setattr(cli, "run_suite", no_convergence)
        assert main(["verify"]) == 1
        assert capsys.readouterr().err == (
            "run error: soft policy iteration did not converge\n")

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
        # an int schedule value: with --jobs 2 one TD chunk holds only this method
        doc["methods"][1]["schedule"]["fixed_value"] = 1
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

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("config", sorted(GOLDEN_RUN_DIGESTS))
    def test_run_keeps_its_bytes(self, tmp_path, config, jobs):
        # every file a run writes, pinned by SHA-256, version line included
        import hashlib

        doc = golden_run_config(config, tmp_path / "out")
        assert main(["run", write_config(tmp_path, doc), "--jobs", str(jobs)]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in (tmp_path / "out").iterdir()}
        assert digests == GOLDEN_RUN_DIGESTS[config]

    def test_failed_write_leaves_no_tmp_file(self, tmp_path):
        path = tmp_path / "trace.csv"

        def partial(p):
            with open(p, "w") as fh:
                fh.write("# driftsched=")
                raise OSError(28, "No space left on device")

        with pytest.raises(OSError, match="No space left"):
            cli._atomic_write(str(path), partial)
        assert list(tmp_path.iterdir()) == []

    def test_disk_full_run_leaves_no_tmp_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"

        def disk_full(trace, p):
            with open(p, "w") as fh:
                fh.write("# driftsched=")
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(RunTrace, "to_csv", disk_full)
        assert main(["run", write_config(tmp_path, base_config(out, horizon=200))]) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert list(out.iterdir()) == []

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

    @pytest.mark.parametrize("methods", [5, {"a": 1}, [3]])
    def test_base_config_checked_before_override(self, tmp_path, capsys, methods):
        # the override edits every methods entry, so it needs them checked first
        doc = base_config(tmp_path / "out")
        doc["methods"] = methods
        out = tmp_path / "sweep"
        assert main(["sweep", write_config(tmp_path, doc), "--param", "quantile_q",
                     "--values", "0.5", "--out", str(out)]) == 2
        assert "config error: methods" in capsys.readouterr().err
        assert not out.exists()

    def test_every_value_checked_before_the_first_run(self, tmp_path, capsys):
        doc = base_config(tmp_path / "out", horizon=200)
        doc["task"]["patterns"] = ["steady"]
        doc["methods"] = doc["methods"][:1]
        out = tmp_path / "sweep"
        assert main(["sweep", write_config(tmp_path, doc), "--param", "horizon",
                     "--values", "200,abc", "--out", str(out)]) == 2
        assert "config error: horizon" in capsys.readouterr().err
        assert not list(tmp_path.glob("**/sweep_*"))

    def test_repeated_value_rejected_before_any_run(self, tmp_path, capsys):
        # a repeat would run twice into one directory and write its rows twice
        doc = base_config(tmp_path / "out", horizon=200)
        doc["task"]["patterns"] = ["steady"]
        doc["methods"] = doc["methods"][:1]
        out = tmp_path / "sweep"
        assert main(["sweep", write_config(tmp_path, doc), "--param", "learn_rate",
                     "--values", "0.1,0.2,0.1", "--out", str(out)]) == 2
        assert "config error: --values repeats 0.1" in capsys.readouterr().err
        assert not out.exists() and not list(tmp_path.glob("**/sweep_*"))


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

    @pytest.mark.parametrize("seed", ["-1", "abc"])
    def test_bad_seed_rejected_before_any_check(self, monkeypatch, capsys, seed):
        def no_suite(seed):
            raise AssertionError("run_suite called")

        monkeypatch.setattr(cli, "run_suite", no_suite)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--json", "--seed", seed])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --seed: seed must be a non-negative integer, got {seed!r}" in err

    def test_deterministic(self, capsys):
        main(["verify", "--json", "--seed", "3"])
        first = capsys.readouterr().out
        main(["verify", "--json", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second
