"""Experiment harness: config-driven runs, sweeps, and the check suite.

Subcommands:
  run <config.json> [--out DIR] [--jobs N]
  sweep <config.json> --param KEY --values v1,v2,... [--out DIR] [--jobs N]
  verify [--seed N] [--json]

Exit codes: 0 success, 1 runtime failure, 2 config error, 3 check-suite
failure. Outputs are deterministic functions of (config, seeds): one
trace CSV per (method, pattern, seed) cell plus a metrics summary.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from ._version import __version__
from .agent import planner_run_many, td_train_many
from .errors import ConfigError, InvalidSpec, UnknownKey
from .metrics import EvalCurve, auc, recovery_time
from .scheduler import MODES, ScheduleConfig
from .simplex import SUM_TOL
from .softmdp import PATTERNS, DriftSpec, SoftMdpSequence, goal_chain_mdp, random_mdp
from .verify import run_suite

_REQUIRED = object()  # the default of a key that every config must give
_POSITIVE = (lambda v: v > 0.0, "a finite number > 0")
_UNIT = (lambda v: 0.0 <= v <= 1.0, "a finite number in [0, 1]")
_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_FINITE = (lambda v: True, "a finite number")  # for a key with no range test

# The config schema: key -> (kind, default or _REQUIRED[, range test, what the
# test accepts]). A kind is a type, a table (an object walked with it) or a
# one-table list (a list of such objects). A float is any finite number.
_SCHEDULE = {
    "mode": (str, "online", lambda v: v in MODES, f"one of {MODES}"),
    "C1": (float, 1.0, *_POSITIVE),
    "C2": (float, 1.0, *_POSITIVE),
    "c": (float, 1.0, *_POSITIVE),
    "lambda_min": (float, 0.05, *_POSITIVE),
    "lambda_max": (float, 1.0, *_POSITIVE),
    "quantile_q": (float, 0.9, lambda v: 0.0 < v <= 1.0, "a finite number in (0, 1]"),
    "ema_beta": (float, 0.95, lambda v: 0.0 <= v < 1.0, "a finite number in [0, 1)"),
    "fixed_value": (float, 0.1),
}
_METHOD = {
    "name": (str, _REQUIRED),
    "agent": (str, _REQUIRED, lambda v: v in ("planner", "td"), "'planner' or 'td'"),
    "schedule": (_SCHEDULE, {}),
}
_DRIFT = {
    "change_times": (list, [], lambda v: all(_fits(t, int) for t in v), "a list of integers"),
    "magnitude": (float, 1.0, *_UNIT),
    "period": (int, 0, lambda v: v >= 0, ">= 0"),
    "amplitude": (float, 0.0, *_UNIT),
    "reward_drift": (bool, True),
    "transition_drift": (bool, False),
    "jitter": (float, 0.0, lambda v: v >= 0.0, "a finite number >= 0"),
}
_TASK = {
    "kind": (str, "random", lambda v: v in ("random", "goal_chain"), "'random' or 'goal_chain'"),
    "n_states": (int, _REQUIRED, *_AT_LEAST_1),
    "n_actions": (int, _REQUIRED, *_AT_LEAST_1),
    "gamma": (float, 0.9, lambda v: 0.0 < v < 1.0, "a finite number in (0, 1)"),
    "mu": (float, 0.2, *_POSITIVE),
    "r_max": (float, 1.0, *_POSITIVE),
    "patterns": (list, ["steady"], lambda v: _distinct(v, lambda p: p in PATTERNS),
                 f"a nonempty list of distinct patterns from {PATTERNS}"),
    "drift": (_DRIFT, {}),
}
_CONFIG = {
    "task": (_TASK, _REQUIRED),
    "methods": ([_METHOD], _REQUIRED, lambda v: len(v) > 0, "a nonempty list"),
    "seeds": (list, _REQUIRED, lambda v: _distinct(v, lambda s: _fits(s, int) and s >= 0),
              "a nonempty list of distinct integers >= 0"),
    "horizon": (int, _REQUIRED, *_AT_LEAST_1),
    "batch_size": (int, 20, *_AT_LEAST_1),
    "eval_every": (int, 50, *_AT_LEAST_1),
    "episode_len": (int, 20, *_AT_LEAST_1),
    "learn_rate": (float, 0.1, *_POSITIVE),
    "eps": (float, 1e-6),
    "solver_tol": (float, 1e-9, *_POSITIVE),
    "output_dir": (str, "out"),
}
SCHEDULE_KEYS = tuple(_SCHEDULE)
TOP_SWEEP_KEYS = ("horizon", "batch_size", "eval_every", "episode_len", "learn_rate")


@dataclass
class ExperimentConfig:
    task_kind: str
    n_states: int
    n_actions: int
    gamma: float
    mu: float
    r_max: float
    patterns: list
    drift: DriftSpec
    methods: list  # (name, agent, ScheduleConfig)
    seeds: list
    horizon: int
    batch_size: int
    eval_every: int
    episode_len: int
    learn_rate: float
    eps: float
    solver_tol: float
    output_dir: str

    @property
    def task_name(self) -> str:
        return f"{self.task_kind}-{self.n_states}x{self.n_actions}"


def _fits(val, kind) -> bool:
    """val is a kind; a bool is no int, and an int or float is one a finite
    float can hold (JSON also allows larger ints, NaN and infinities)."""
    if kind in (int, float):
        return type(val) in (int, kind) and abs(val) <= sys.float_info.max
    return isinstance(val, kind)


def _distinct(vals: list, ok) -> bool:
    """vals is nonempty, ok holds for each entry, and no entry repeats."""
    return bool(vals) and all(ok(v) for v in vals) and len(set(vals)) == len(vals)


def _walk(doc, schema: dict, path: str) -> dict:
    """The values of the object doc checked against schema, absent keys at their
    defaults: no unknown or missing key, each value of its kind and in range."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'} must be an object, got {doc!r}")
    at = path + "." if path else ""
    for key in doc:
        if key not in schema:
            raise ConfigError(f"unknown key {at}{key}")
    out = {}
    for key, (kind, default, *test) in schema.items():
        name, val = at + key, doc.get(key, default)
        base = type(kind) if type(kind) in (dict, list) else kind
        ok, want = test or _FINITE
        if val is _REQUIRED:
            raise ConfigError(f"missing key {name}")
        if base is float and not (_fits(val, float) and ok(val)):
            raise ConfigError(f"{name}={val!r} must be {want}")
        if not _fits(val, base):
            raise ConfigError(f"{name} must be {base.__name__}, got {val!r}")
        if not ok(val):
            raise ConfigError(f"{name} must be {want}, got {val!r}")
        if type(kind) is dict:
            val = _walk(val, kind, name)
        elif type(kind) is list:
            val = [_walk(v, kind[0], f"{name}[{i}]") for i, v in enumerate(val)]
        out[key] = val
    return out


def parse_config(doc) -> ExperimentConfig:
    """The experiment a config document describes. The schema checks each
    key, then the rules below tie keys together."""
    top = _walk(doc, _CONFIG, "")
    task, methods, seeds = top.pop("task"), top.pop("methods"), top.pop("seeds")
    drift, patterns = task.pop("drift"), task.pop("patterns")
    horizon, every, changes = top["horizon"], top["eval_every"], drift["change_times"]
    schedules = []
    for i, m in enumerate(methods):
        at = f"methods[{i}].schedule."
        # ScheduleConfig (c1, c2 for C1, C2) checks lambda_min <= lambda_max
        # and fixed_value > 0 in fixed mode; the schema checked all else
        try:
            sch = ScheduleConfig(**{k.lower(): v for k, v in m["schedule"].items()})
        except ValueError as exc:
            raise ConfigError(f"{at}{exc}") from exc
        if m["agent"] == "td" and sch.mode == "oracle":
            raise ConfigError(f"{at}mode 'oracle' needs the true drift, "
                              f"which a td agent does not observe")
        schedules.append((m["name"], m["agent"], sch))
    if len({m["name"] for m in methods}) != len(methods):
        raise ConfigError("methods[].name values must be unique")
    if task["kind"] == "goal_chain" and task["n_actions"] != 3:
        raise ConfigError("task.n_actions must be 3 for goal_chain")
    if any(p in ("periodic", "mixed") for p in patterns) and drift["period"] < 2:
        raise ConfigError("task.drift.period must be >= 2 for periodic/mixed patterns")
    if not all(2 <= tc <= horizon for tc in changes):
        raise ConfigError(f"task.drift.change_times={changes} must lie in [2, horizon={horizon}]")
    agents = {m["agent"] for m in methods}
    if "planner" in agents and not 0.0 <= top["eps"] <= 1.0 / task["n_actions"] + SUM_TOL:
        raise ConfigError(f"eps={top['eps']!r} must lie in [0, 1/n_actions] for planners")
    if "planner" in agents and horizon < 2:  # a planner evaluates every round
        raise ConfigError(f"horizon={horizon} gives planner runs fewer than "
                          f"two evaluation points")
    if "td" in agents and horizon // every < 2:
        raise ConfigError(f"eval_every={every} gives TD runs fewer than "
                          f"two evaluation points in horizon={horizon}")
    # recovery_time needs an evaluation point before each change
    if ("td" in agents and any(p in ("abrupt", "mixed") for p in patterns) and changes
            and every >= min(changes)):
        raise ConfigError(f"eval_every={every} gives TD runs no evaluation point "
                          f"before change time {min(changes)}")
    # the keys left in task and top are the names of ExperimentConfig fields
    return ExperimentConfig(
        task_kind=task.pop("kind"), **task, patterns=list(patterns),
        drift=DriftSpec(**{**drift, "change_times": tuple(changes)}),
        methods=schedules, seeds=list(seeds), **top,
    )


def build_sequence_spec(cfg: ExperimentConfig, pattern: str,
                        seed: int) -> SoftMdpSequence:
    if cfg.task_kind == "goal_chain":
        base = goal_chain_mdp(cfg.n_states, cfg.gamma, cfg.mu)
        # the drifted configuration moves the goal to the opposite end
        alt = goal_chain_mdp(cfg.n_states, cfg.gamma, cfg.mu, goal=0)
        drift = replace(cfg.drift, reward_alt=alt.rewards)
    else:
        rng = np.random.default_rng([seed, 1017])
        base = random_mdp(cfg.n_states, cfg.n_actions, cfg.gamma, cfg.mu,
                          cfg.r_max, rng=rng)
        drift = cfg.drift
    return SoftMdpSequence(base=base, pattern=pattern, horizon=cfg.horizon,
                           drift=drift, seed=seed)


def _atomic_write(path: str, writer) -> None:
    """writer(path + ".tmp"), then rename it to path; a writer that raises leaves no .tmp."""
    tmp = path + ".tmp"
    try:
        writer(tmp)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def _cells_job(args):
    """Run one (pattern, seed)'s planner cells or a chunk of TD cells in one call;
    write their traces, return their curves."""
    cfg, cells, out_dir = args
    # cells of one (pattern, seed) share a spec, so its MDPs are built once
    built = {c[3:]: build_sequence_spec(cfg, *c[3:]) for c in cells}
    specs = [built[c[3:]] for c in cells]
    if cells[0][1] == "planner":
        traces = planner_run_many(specs[0], [c[2] for c in cells], eps=cfg.eps,
                                  tol=cfg.solver_tol)
    else:
        traces = td_train_many(specs, [c[2] for c in cells], [c[4] for c in cells],
                               cfg.batch_size, cfg.eval_every, cfg.episode_len,
                               cfg.learn_rate)
    results = []
    for (name, _, _, pattern, seed), trace in zip(cells, traces):
        trace.columns["pattern"] = np.broadcast_to(np.array(pattern, dtype=object), len(trace))
        trace.columns["seed"] = np.broadcast_to(np.array(seed), len(trace))
        trace.meta.update({"method": name, "pattern": pattern, "seed": seed,
                           "task": cfg.task_name})
        path = os.path.join(out_dir, f"trace_{name}_{pattern}_seed{seed}.csv")
        _atomic_write(path, trace.to_csv)
        curve = EvalCurve.from_trace(trace)
        results.append(((name, pattern, seed), (curve.steps.tolist(), curve.returns.tolist())))
    return results


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   jobs: int = 1) -> str:
    """Execute every (method, pattern, seed) cell; returns the summary path.

    Planner cells run one job per (pattern, seed), sharing its solve chain;
    TD cells run in `jobs` contiguous lockstep chunks. A trace does not
    depend on its group, its chunk or on `jobs`.
    """
    if jobs < 1:
        raise ConfigError(f"jobs={jobs} must be >= 1")
    out_dir = out_dir or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    cells = [
        (name, agent, schedule, pattern, seed)
        for (name, agent, schedule) in cfg.methods
        for pattern in cfg.patterns
        for seed in cfg.seeds
    ]
    planner = {}
    for c in cells:
        if c[1] == "planner":
            planner.setdefault(c[3:], []).append(c)
    td = [c for c in cells if c[1] == "td"]
    n_td = min(jobs, len(td))
    groups = list(planner.values()) + [
        td[i * len(td) // n_td:(i + 1) * len(td) // n_td] for i in range(n_td)]
    job_args = [(cfg, group, out_dir) for group in groups]
    workers = min(jobs, len(job_args))  # a pool starts all its workers at once
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            results = dict(r for rs in ex.map(_cells_job, job_args) for r in rs)
    else:
        results = dict(r for args in job_args for r in _cells_job(args))

    curves = {
        key: EvalCurve(np.asarray(steps), np.asarray(rets))
        for key, (steps, rets) in results.items()
    }
    summary_path = os.path.join(out_dir, "summary.csv")
    rows = summarize(cfg, curves)
    _atomic_write(summary_path, lambda p: _write_summary(p, rows))
    return summary_path


def _mean_steady_auc(cfg: ExperimentConfig, curves: dict, method: str):
    vals = [auc(curves[(method, "steady", s)]) for s in cfg.seeds
            if (method, "steady", s) in curves]
    return float(np.mean(vals)) if vals else None


def summarize(cfg: ExperimentConfig, curves: dict) -> list:
    """Per-cell metric rows: (task, pattern, method, seed, nauc, drop, recovery).

    nAUC is normalized by the steady runs of the baseline method (the
    first fixed-schedule method, else the first method); the drop ratio
    compares each method's drifting runs to its own steady mean.
    """
    baseline_method = next(
        (name for (name, _, sch) in cfg.methods if sch.mode == "fixed"),
        cfg.methods[0][0],
    )
    baseline_auc = _mean_steady_auc(cfg, curves, baseline_method)
    rows = []
    for (name, _, _) in cfg.methods:
        own_steady = _mean_steady_auc(cfg, curves, name)
        for pattern in cfg.patterns:
            for seed in cfg.seeds:
                curve = curves[(name, pattern, seed)]
                area = auc(curve)
                nauc = area / baseline_auc if baseline_auc else math.nan
                drop = (
                    1.0 - area / own_steady
                    if own_steady and pattern != "steady" else
                    (0.0 if pattern == "steady" and own_steady else math.nan)
                )
                changes = cfg.drift.change_times if pattern in ("abrupt", "mixed") else ()
                rec = (
                    recovery_time(curve, changes, window=5,
                                  total_steps=cfg.horizon)
                    if changes else 0.0
                )
                rows.append((cfg.task_name, pattern, name, seed, nauc, drop, rec))
    rows.sort(key=lambda r: (r[2], r[1], r[3]))
    return rows


def _write_summary(path: str, rows: list) -> None:
    with open(path, "w") as fh:
        fh.write(f"# driftsched={__version__}\n")
        fh.write("task,pattern,method,seed,nauc,drop_ratio,recovery\n")
        for row in rows:
            cells = [str(row[0]), str(row[1]), str(row[2]), str(row[3])]
            for v in row[4:]:
                cells.append("" if isinstance(v, float) and math.isnan(v) else repr(float(v)))
            fh.write(",".join(cells) + "\n")


def _load_config(path: str):
    """The JSON document in the file at path. Bytes that are not UTF-8
    JSON, and an object that repeats a key, are config errors."""
    def unique(pairs):
        doc = {}
        for key, val in pairs:
            if key in doc:
                raise ConfigError(f"config repeats key {key!r}")
            doc[key] = val
        return doc

    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc


def cmd_run(args) -> int:
    cfg = parse_config(_load_config(args.config))
    print(run_experiment(cfg, out_dir=args.out, jobs=args.jobs))
    return 0


def _apply_override(doc: dict, param: str, value):
    if param in TOP_SWEEP_KEYS:
        doc[param] = value
    elif param in SCHEDULE_KEYS:
        for m in doc["methods"]:
            m.setdefault("schedule", {})[param] = value
    else:
        raise UnknownKey(f"unknown sweep parameter {param!r}")


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def cmd_sweep(args) -> int:
    base_doc = _load_config(args.config)
    base_dir = parse_config(base_doc).output_dir  # the overrides need a checked doc
    out_root = args.out or base_dir
    values = [v for v in args.values.split(",") if v != ""]
    if not values:
        return 0
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:  # a repeat would run into the same directory and double its rows
        raise ConfigError(f"--values repeats {', '.join(repeated)}")
    cfgs = []  # every value is checked before the first one runs
    for text in values:
        doc = json.loads(json.dumps(base_doc))
        _apply_override(doc, args.param, _parse_value(text))
        cfgs.append(parse_config(doc))
    all_rows = []
    for text, cfg in zip(values, cfgs):
        sub = os.path.join(out_root, f"sweep_{args.param}={text}")
        run_experiment(cfg, out_dir=sub, jobs=args.jobs)
        # reread the per-cell metric rows with the sweep column attached
        with open(os.path.join(sub, "summary.csv")) as fh:
            lines = fh.read().splitlines()[2:]
        for line in lines:
            all_rows.append(line + f",{args.param},{text}")
    combined = os.path.join(out_root, "sweep_summary.csv")

    def write(path):
        with open(path, "w") as fh:
            fh.write(f"# driftsched={__version__}\n")
            fh.write("task,pattern,method,seed,nauc,drop_ratio,recovery,sweep_param,sweep_value\n")
            fh.write("\n".join(all_rows) + ("\n" if all_rows else ""))

    _atomic_write(combined, write)
    print(combined)
    return 0


def cmd_verify(args) -> int:
    reports = run_suite(seed=args.seed)
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        width = max(len(r.name) for r in reports)
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            print(f"{r.name:<{width}}  {status}  n={r.samples:<5d} "
                  f"worst={r.max_violation:+.3e}  tol={r.tolerance:.1e}")
        n_fail = sum(not r.passed for r in reports)
        print(f"{len(reports) - n_fail}/{len(reports)} checks passed")
    return 0 if all(r.passed for r in reports) else 3


def _seed_arg(text: str) -> int:
    """argparse type of --seed: default_rng takes only non-negative ints."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="driftsched",
        description="Drift-aware entropy scheduling experiments and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="re-run a config over parameter values")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the numerical check suite")
    p_verify.add_argument("--seed", type=_seed_arg, default=0)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidSpec) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, MemoryError) as exc:  # NoConvergence, SingularSystem
        print(f"run error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
