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
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .agent import planner_run_many, td_train_many
from .errors import ConfigError, InvalidSpec, UnknownKey
from .metrics import EvalCurve, auc, recovery_time
from .scheduler import MODES, ScheduleConfig
from .simplex import SUM_TOL
from .softmdp import PATTERNS, DriftSpec, SoftMdpSequence, goal_chain_mdp, random_mdp
from .verify import run_suite

SCHEDULE_KEYS = ("mode", "C1", "C2", "c", "lambda_min", "lambda_max",
                 "quantile_q", "ema_beta", "fixed_value")
TOP_SWEEP_KEYS = ("horizon", "batch_size", "eval_every", "episode_len",
                  "learn_rate")


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


def _require(doc: dict, key: str, kind, path: str):
    if key not in doc:
        raise ConfigError(f"missing key {path}{key}")
    val = doc[key]
    if kind is float and isinstance(val, int):
        val = float(val)
    if not isinstance(val, kind):
        raise ConfigError(f"{path}{key} must be {kind.__name__}, got {val!r}")
    return val


def _schedule_from(doc: dict, path: str) -> ScheduleConfig:
    unknown = set(doc) - set(SCHEDULE_KEYS)
    if unknown:
        raise ConfigError(f"unknown key {path}{sorted(unknown)[0]}")
    mode = doc.get("mode", "online")
    if mode not in MODES:
        raise ConfigError(f"{path}mode must be one of {MODES}, got {mode!r}")
    kwargs = dict(
        c1=doc.get("C1", 1.0), c2=doc.get("C2", 1.0), c=doc.get("c", 1.0),
        lambda_min=doc.get("lambda_min", 0.05),
        lambda_max=doc.get("lambda_max", 1.0),
        quantile_q=doc.get("quantile_q", 0.9),
        ema_beta=doc.get("ema_beta", 0.95),
        mode=mode, fixed_value=doc.get("fixed_value", 0.1),
    )
    if kwargs["lambda_min"] > kwargs["lambda_max"]:
        raise ConfigError(
            f"{path}lambda_min (={kwargs['lambda_min']}) exceeds "
            f"{path}lambda_max (={kwargs['lambda_max']})"
        )
    try:
        return ScheduleConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config(doc: dict) -> ExperimentConfig:
    task = _require(doc, "task", dict, "")
    kind = task.get("kind", "random")
    if kind not in ("random", "goal_chain"):
        raise ConfigError(f"task.kind must be 'random' or 'goal_chain', got {kind!r}")
    n_states = _require(task, "n_states", int, "task.")
    n_actions = _require(task, "n_actions", int, "task.")
    if n_states < 1 or n_actions < 1:
        raise ConfigError("task.n_states and task.n_actions must be >= 1")
    if kind == "goal_chain" and n_actions != 3:
        raise ConfigError("task.n_actions must be 3 for goal_chain")
    patterns = task.get("patterns", ["steady"])
    for p in patterns:
        if p not in PATTERNS:
            raise ConfigError(f"task.patterns entry {p!r} not in {PATTERNS}")
    drift_doc = task.get("drift", {})
    drift = DriftSpec(
        change_times=tuple(drift_doc.get("change_times", ())),
        magnitude=drift_doc.get("magnitude", 1.0),
        period=drift_doc.get("period", 0),
        amplitude=drift_doc.get("amplitude", 0.0),
        reward_drift=drift_doc.get("reward_drift", True),
        transition_drift=drift_doc.get("transition_drift", False),
        jitter=drift_doc.get("jitter", 0.0),
    )
    methods = []
    for i, m in enumerate(_require(doc, "methods", list, "")):
        path = f"methods[{i}]."
        name = _require(m, "name", str, path)
        agent = _require(m, "agent", str, path)
        if agent not in ("planner", "td"):
            raise ConfigError(f"{path}agent must be 'planner' or 'td'")
        methods.append((name, agent, _schedule_from(m.get("schedule", {}), path + "schedule.")))
    if len({m[0] for m in methods}) != len(methods):
        raise ConfigError("methods[].name values must be unique")
    seeds = _require(doc, "seeds", list, "")
    if not seeds or not all(isinstance(s, int) for s in seeds):
        raise ConfigError("seeds must be a nonempty list of integers")
    horizon = _require(doc, "horizon", int, "")
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    if any(p in ("periodic", "mixed") for p in patterns) and drift.period < 2:
        raise ConfigError("task.drift.period must be >= 2 for periodic/mixed patterns")
    for tc in drift.change_times:
        if not 2 <= tc <= horizon:
            raise ConfigError(
                f"task.drift.change_times entry {tc} outside [2, horizon={horizon}]"
            )
    eps = doc.get("eps", 1e-6)
    if any(m[1] == "planner" for m in methods) and not (
            type(eps) in (int, float) and 0.0 <= eps <= 1.0 / n_actions + SUM_TOL):
        raise ConfigError(f"eps={eps!r} must lie in [0, 1/n_actions] for planners")
    knobs = {k: doc.get(k, d) for k, d in (("batch_size", 20), ("eval_every", 50),
                                           ("episode_len", 20))}
    for key, val in knobs.items():
        if type(val) is not int or val < 1:
            raise ConfigError(f"{key}={val!r} must be an integer >= 1")
    learn_rate = doc.get("learn_rate", 0.1)
    if type(learn_rate) not in (int, float) or not 0.0 < learn_rate < math.inf:
        raise ConfigError(f"learn_rate={learn_rate!r} must be a finite number > 0")
    if any(m[1] == "td" for m in methods):
        if horizon // knobs["eval_every"] < 2:
            raise ConfigError(f"eval_every={knobs['eval_every']} gives TD runs fewer than "
                              f"two evaluation points in horizon={horizon}")
        # recovery_time needs an evaluation point before each change
        if (any(p in ("abrupt", "mixed") for p in patterns) and drift.change_times
                and knobs["eval_every"] >= min(drift.change_times)):
            raise ConfigError(f"eval_every={knobs['eval_every']} gives TD runs no "
                              f"evaluation point before change time "
                              f"{min(drift.change_times)}")
    return ExperimentConfig(
        task_kind=kind, n_states=n_states, n_actions=n_actions,
        gamma=task.get("gamma", 0.9), mu=task.get("mu", 0.2),
        r_max=task.get("r_max", 1.0), patterns=list(patterns), drift=drift,
        methods=methods, seeds=list(seeds), horizon=horizon, **knobs,
        learn_rate=learn_rate, eps=eps, solver_tol=doc.get("solver_tol", 1e-9),
        output_dir=doc.get("output_dir", "out"),
    )


def build_sequence_spec(cfg: ExperimentConfig, pattern: str,
                        seed: int) -> SoftMdpSequence:
    if cfg.task_kind == "goal_chain":
        base = goal_chain_mdp(cfg.n_states, cfg.gamma, cfg.mu)
        # the drifted configuration moves the goal to the opposite end
        alt = goal_chain_mdp(cfg.n_states, cfg.gamma, cfg.mu, goal=0)
        drift = DriftSpec(
            change_times=cfg.drift.change_times,
            magnitude=cfg.drift.magnitude, period=cfg.drift.period,
            amplitude=cfg.drift.amplitude,
            reward_drift=cfg.drift.reward_drift,
            transition_drift=cfg.drift.transition_drift,
            reward_alt=alt.rewards, jitter=cfg.drift.jitter,
        )
    else:
        rng = np.random.default_rng([seed, 1017])
        base = random_mdp(cfg.n_states, cfg.n_actions, cfg.gamma, cfg.mu,
                          cfg.r_max, rng=rng)
        drift = cfg.drift
    return SoftMdpSequence(base=base, pattern=pattern, horizon=cfg.horizon,
                           drift=drift, seed=seed)


def _atomic_write(path: str, writer) -> None:
    tmp = path + ".tmp"
    writer(tmp)
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
        trace.columns["pattern"] = np.asarray([pattern] * len(trace), dtype=object)
        trace.columns["seed"] = np.full(len(trace), seed)
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
    n_td = min(max(jobs, 1), len(td))
    groups = list(planner.values()) + [
        td[i * len(td) // n_td:(i + 1) * len(td) // n_td] for i in range(n_td)]
    job_args = [(cfg, group, out_dir) for group in groups]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as ex:
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


def cmd_run(args) -> int:
    with open(args.config) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = parse_config(doc)
    summary = run_experiment(cfg, out_dir=args.out, jobs=args.jobs)
    print(summary)
    return 0


def _apply_override(doc: dict, param: str, value):
    if param in TOP_SWEEP_KEYS:
        doc[param] = value
        return
    if param in SCHEDULE_KEYS:
        for m in doc.get("methods", []):
            m.setdefault("schedule", {})[param] = value
        return
    raise UnknownKey(f"unknown sweep parameter {param!r}")


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def cmd_sweep(args) -> int:
    with open(args.config) as fh:
        try:
            base_doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    values = [v for v in args.values.split(",") if v != ""]
    if not values:
        return 0
    all_rows = []
    out_root = args.out or parse_config(base_doc).output_dir
    for text in values:
        value = _parse_value(text)
        doc = json.loads(json.dumps(base_doc))
        _apply_override(doc, args.param, value)
        cfg = parse_config(doc)
        sub = os.path.join(out_root, f"sweep_{args.param}={text}")
        os.makedirs(sub, exist_ok=True)
        run_experiment(cfg, out_dir=sub, jobs=args.jobs)
        # reread the per-cell metric rows with the sweep column attached
        with open(os.path.join(sub, "summary.csv")) as fh:
            lines = fh.read().splitlines()[2:]
        for line in lines:
            all_rows.append(line + f",{args.param},{text}")
    combined = os.path.join(out_root, "sweep_summary.csv")
    with open(combined + ".tmp", "w") as fh:
        fh.write(f"# driftsched={__version__}\n")
        fh.write("task,pattern,method,seed,nauc,drop_ratio,recovery,sweep_param,sweep_value\n")
        fh.write("\n".join(all_rows) + ("\n" if all_rows else ""))
    os.replace(combined + ".tmp", combined)
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
    p_verify.add_argument("--seed", type=int, default=0)
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


if __name__ == "__main__":
    sys.exit(main())
