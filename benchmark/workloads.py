"""The benchmark's workloads: their inputs, their rounds and their output checks.

Each workload builds its inputs from the seed alone. One round runs its
operations once through ``driftsched.cli.main``: for ``td_chain`` and
``planner_drift`` that is one ``driftsched run`` over every
(method, pattern) cell of the seed, for ``verify_suite`` one
``driftsched verify --json``. The checks read back what the command
wrote and test it against properties of the method and against the
independent solver in ``reference.py``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

RETURN_TOL = 1e-6   # program returns against the reference J*
REGRET_TOL = 1e-7   # per-round regret increments, >= 0 in exact arithmetic
UNIFORM_TOL = 1e-8  # the planner's first, uniform policy against the dense evaluation
SAMPLED_ROUNDS = 24  # planner rounds per cell compared with the reference J*
MIN_BUDGET = 1e-9    # a variation budget at or below this is rounding, not drift

# Sample counts run_suite asks for: exact for these reports, at least
# BATTERY_MIN for every other one.
EXACT_SAMPLES = {
    "performance_difference": 200,
    "coupled_tradeoff_regret_bound": 101,
    "online_schedule_regret_bound": 100,
    "softmax_jacobian_tightness": 50,
    "offline_lambda_minimizer": 50,
    "oracle_schedule_bound": 50,
}
BATTERY_MIN = 1000
N_REPORTS = 24
DRIFTING = ("abrupt", "linear", "periodic", "mixed")


class NoDrift(ValueError):
    """A workload input that should drift does not."""


@dataclass
class RoundOutput:
    """What one round left behind, read back after the timed call."""

    failed: int
    hashes: dict = field(default_factory=dict)
    elementary: int = 0


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_columns(path: str, names) -> dict:
    """Named columns of a CSV the CLI wrote, skipping its '#' header lines."""
    with open(path, newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader)
        idx = [header.index(n) for n in names]
        cols = {n: [] for n in names}
        for row in reader:
            for n, i in zip(names, idx):
                cols[n].append(row[i])
    return cols


def as_floats(values) -> np.ndarray:
    return np.array([float(v) if v != "" else math.nan for v in values])


def check_drifts(spec, seq) -> None:
    """Refuse a drifting sequence whose MDPs never change.

    Its variation budget must exceed rounding error, and the alternate
    endpoint (the sequence at mixing weight 1) must differ from the base
    in every part the spec says drifts. Mixing two equal endpoints still
    gives a budget of rounding size, so the first test alone would pass it.
    """
    from driftsched.softmdp import generate_sequence, variation_budget

    where = f"pattern {spec.pattern!r}, seed {spec.seed}"
    if not variation_budget(seq)[2] > MIN_BUDGET:
        raise NoDrift(f"{where}: the variation budget is zero up to rounding")
    endpoint_spec = replace(spec, pattern="linear", horizon=2,
                            drift=replace(spec.drift, magnitude=1.0, change_times=()))
    alt = generate_sequence(endpoint_spec)[-1]
    base = spec.base
    if spec.drift.reward_drift and np.array_equal(alt.rewards, base.rewards):
        raise NoDrift(f"{where}: the alternate rewards equal the base rewards")
    if spec.drift.transition_drift and np.array_equal(alt.transitions, base.transitions):
        raise NoDrift(f"{where}: the alternate transitions equal the base transitions")


def _reference_returns(mdps) -> list:
    """J*_mu of each MDP from the independent solver, solving each distinct one once."""
    import reference

    first = mdps[0]
    distinct = {}
    for m in mdps:
        distinct.setdefault(m.rewards.tobytes() + m.transitions.tobytes(), m)
    keys = list(distinct)
    v = reference.optimal_soft_values(
        np.stack([distinct[k].rewards for k in keys]),
        np.stack([distinct[k].transitions for k in keys]), first.gamma, first.mu)
    j = dict(zip(keys, (v @ first.rho).tolist()))
    # the solver agrees with the dense evaluation of its own optimal policy
    pi = reference.optimal_policy(first.rewards, first.transitions, first.gamma, first.mu)
    j_dense = reference.policy_return(first.rewards, first.transitions, first.rho,
                                      first.gamma, first.mu, pi)
    j_first = j[first.rewards.tobytes() + first.transitions.tobytes()]
    if abs(j_dense - j_first) > 1e-9:
        raise RuntimeError(f"reference solver and dense evaluation disagree: "
                           f"{j_first!r} vs {j_dense!r}")
    return [j[m.rewards.tobytes() + m.transitions.tobytes()] for m in mdps]


class RunWorkload:
    """A ``driftsched run`` config; one round runs every cell once."""

    def __init__(self, name: str, doc: dict, agent: str):
        self.name = name
        self.doc = doc
        self.agent = agent

    # -- inputs -----------------------------------------------------------

    def build_inputs(self):
        """The parsed config and one sequence spec per (pattern, seed)."""
        from driftsched import cli

        cfg = cli.parse_config(self.doc)
        specs = {(p, s): cli.build_sequence_spec(cfg, p, s)
                 for p in cfg.patterns for s in cfg.seeds}
        return cfg, specs

    def cells(self) -> list:
        """(method, schedule, pattern, seed) of every cell, from the config document."""
        return [(m["name"], m.get("schedule", {}), p, s)
                for m in self.doc["methods"]
                for p in self.doc["task"]["patterns"] for s in self.doc["seeds"]]

    @property
    def ops_per_round(self) -> int:
        return len(self.cells())

    def prepare(self, work_dir: str) -> None:
        with open(os.path.join(work_dir, f"{self.name}.json"), "w") as fh:
            json.dump(self.doc, fh, indent=1, sort_keys=True)

    def argv(self, work_dir: str, out_dir: str) -> list:
        return ["run", os.path.join(work_dir, f"{self.name}.json"),
                "--out", out_dir, "--jobs", "1"]

    @staticmethod
    def trace_name(method: str, pattern: str, seed: int) -> str:
        return f"trace_{method}_{pattern}_seed{seed}.csv"

    # -- reading a round back ---------------------------------------------

    def collect(self, exit_code: int, stdout: str, out_dir: str) -> RoundOutput:
        out = RoundOutput(failed=0)
        for (method, _, pattern, seed) in self.cells():
            name = self.trace_name(method, pattern, seed)
            path = os.path.join(out_dir, name)
            if exit_code != 0 or not os.path.exists(path):
                out.failed += 1
                continue
            out.hashes[name] = sha256_file(path)
            out.elementary += self.doc["horizon"]
        summary = os.path.join(out_dir, "summary.csv")
        if exit_code == 0 and os.path.exists(summary):
            out.hashes["summary.csv"] = sha256_file(summary)
        return out

    # -- the reference, built in a separate process -------------------------

    def reference(self) -> dict:
        """Refuse non-drifting inputs, then the reference values the checks need.

        For every pattern: J*_mu(M_t) at each checked step t, and for the
        planner J_mu of the uniform first policy on M_1.
        """
        from driftsched.softmdp import generate_sequence

        import reference

        _, specs = self.build_inputs()
        out = {}
        for (pattern, seed), spec in specs.items():
            seq = generate_sequence(spec)
            if pattern in DRIFTING:
                check_drifts(spec, seq)
            steps = self.checked_steps(seed)
            j_star = _reference_returns([seq[t - 1] for t in steps])
            entry = {"steps": steps, "j_star": j_star}
            if self.agent == "planner":
                m1 = seq[0]
                uniform = np.full(m1.rewards.shape, 1.0 / m1.rewards.shape[1])
                entry["j_uniform_first"] = reference.policy_return(
                    m1.rewards, m1.transitions, m1.rho, m1.gamma, m1.mu, uniform)
            out[f"{pattern}/{seed}"] = entry
        return out

    def checked_steps(self, seed: int) -> list:
        horizon = self.doc["horizon"]
        if self.agent == "td":
            every = self.doc["eval_every"]
            return list(range(every, horizon + 1, every))
        rng = np.random.default_rng([seed, 7])
        picks = rng.choice(np.arange(2, horizon), size=SAMPLED_ROUNDS - 2, replace=False)
        return sorted({1, horizon, *map(int, picks)})

    # -- checks on one round's outputs ------------------------------------

    def check(self, stdout: str, out_dir: str, ref: dict) -> list:
        """Problems found in the outputs of the cells that did not fail."""
        problems = []
        horizon = self.doc["horizon"]
        for (method, sched, pattern, seed) in self.cells():
            path = os.path.join(out_dir, self.trace_name(method, pattern, seed))
            if not os.path.exists(path):
                continue
            cell = f"{method}/{pattern}/seed{seed}"
            cols = read_columns(path, ("t", "lambda", "eval_return", "regret_inc",
                                       "regret_rl_inc"))
            t = as_floats(cols["t"])
            if not np.array_equal(t, np.arange(1, horizon + 1)):
                problems.append(f"{cell}: {t.size} rows, not t = 1..{horizon}")
                continue
            problems += self._check_lambda(cell, sched, as_floats(cols["lambda"]))
            entry = ref[f"{pattern}/{seed}"]
            steps = np.asarray(entry["steps"])
            j_star = np.asarray(entry["j_star"])
            ret = as_floats(cols["eval_return"])
            if self.agent == "td":
                evaluated = np.flatnonzero(~np.isnan(ret)) + 1
                if not np.array_equal(evaluated, steps):
                    problems.append(f"{cell}: evaluated at steps other than every "
                                    f"{self.doc['eval_every']}")
                    continue
                excess = float((ret[steps - 1] - j_star).max())
                if excess > RETURN_TOL:
                    problems.append(f"{cell}: eval_return exceeds J* by {excess:.3e}")
                continue
            inc = as_floats(cols["regret_inc"])
            rl_inc = as_floats(cols["regret_rl_inc"])
            for label, col in (("regret_inc", inc), ("regret_rl_inc", rl_inc)):
                if not float(col.min()) >= -REGRET_TOL:
                    problems.append(f"{cell}: {label} reaches {float(col.min()):.3e}")
            err = float(np.abs(ret[steps - 1] + rl_inc[steps - 1] - j_star).max())
            if not err <= RETURN_TOL:
                problems.append(f"{cell}: eval_return + regret_rl_inc is {err:.3e} off J*")
            err = abs(float(ret[0]) - entry["j_uniform_first"])
            if not err <= UNIFORM_TOL:
                problems.append(f"{cell}: first-round return is {err:.3e} off the "
                                f"uniform policy's")
        problems += self._check_summary(out_dir)
        return problems

    def _check_lambda(self, cell: str, sched: dict, lam: np.ndarray) -> list:
        if sched.get("mode", "online") == "fixed":
            if not (lam == sched["fixed_value"]).all():
                return [f"{cell}: lambda leaves fixed_value {sched['fixed_value']}"]
            return []
        lo, hi = sched.get("lambda_min", 0.05), sched.get("lambda_max", 1.0)
        if not (lam.min() >= lo and lam.max() <= hi):
            return [f"{cell}: lambda spans [{lam.min()}, {lam.max()}], "
                    f"outside [{lo}, {hi}]"]
        return []

    def _check_summary(self, out_dir: str) -> list:
        path = os.path.join(out_dir, "summary.csv")
        if not os.path.exists(path):
            return []
        cols = read_columns(path, ("pattern", "method", "seed", "recovery"))
        rows = sorted(zip(cols["method"], cols["pattern"], map(int, cols["seed"])))
        want = sorted((m, p, s) for (m, _, p, s) in self.cells())
        problems = []
        if rows != want:
            problems.append(f"summary.csv has rows {rows}, expected one per cell {want}")
        rec = as_floats(cols["recovery"])
        if not ((rec >= 0.0) & (rec <= 1.0)).all():
            problems.append(f"summary.csv recovery outside [0, 1]: {rec.tolist()}")
        return problems


class VerifyWorkload:
    """``driftsched verify --json``; one round is one run of the whole suite."""

    name = "verify_suite"
    ops_per_round = N_REPORTS

    def __init__(self, seed: int):
        self.seed = seed

    def build_inputs(self):
        from driftsched import cli  # noqa: F401

        return self.argv("", "")

    def prepare(self, work_dir: str) -> None:
        pass

    def argv(self, work_dir: str, out_dir: str) -> list:
        return ["verify", "--seed", str(self.seed), "--json"]

    def reference(self) -> dict:
        return {}

    @staticmethod
    def _reports(stdout: str) -> list:
        try:
            reports = json.loads(stdout)
        except json.JSONDecodeError:
            return []
        return reports if isinstance(reports, list) else []

    def collect(self, exit_code: int, stdout: str, out_dir: str) -> RoundOutput:
        reports = self._reports(stdout)
        passed = [r for r in reports if r.get("passed") is True]
        return RoundOutput(
            failed=N_REPORTS - len(passed),
            hashes={"verify.json": sha256_bytes(stdout.encode())},
            elementary=sum(int(r["samples"]) for r in reports),
        )

    def check(self, stdout: str, out_dir: str, ref: dict) -> list:
        reports = self._reports(stdout)
        problems = []
        names = [r.get("name") for r in reports]
        if len(reports) != N_REPORTS or len(set(names)) != len(names):
            problems.append(f"expected {N_REPORTS} distinct reports, got {names}")
        for r in reports:
            if not r.get("passed"):
                continue  # a failed report is a failed operation, counted apart
            if not r["max_violation"] <= r["tolerance"]:
                problems.append(f"{r['name']}: passed with violation "
                                f"{r['max_violation']} above tolerance {r['tolerance']}")
            want = EXACT_SAMPLES.get(r["name"])
            if want is not None and r["samples"] != want:
                problems.append(f"{r['name']}: {r['samples']} samples, run_suite asks {want}")
            if want is None and r["samples"] < BATTERY_MIN:
                problems.append(f"{r['name']}: {r['samples']} samples, fewer than {BATTERY_MIN}")
        return problems


def td_chain(seed: int) -> RunWorkload:
    """The README's minimal config: sampled soft TD on the 5x3 goal chain."""
    return RunWorkload("td_chain", {
        "task": {
            "kind": "goal_chain", "n_states": 5, "n_actions": 3,
            "gamma": 0.9, "mu": 0.2, "patterns": ["steady", "abrupt"],
            "drift": {"change_times": [3000], "jitter": 0.0},
        },
        "methods": [
            {"name": "adaptive_td", "agent": "td",
             "schedule": {"mode": "online", "C1": 0.04, "C2": 1.0,
                          "lambda_min": 0.05, "lambda_max": 1.0,
                          "quantile_q": 0.9, "ema_beta": 0.9}},
            {"name": "fixed_td", "agent": "td",
             "schedule": {"mode": "fixed", "fixed_value": 0.05}},
        ],
        "seeds": [seed],
        "horizon": 8000,
        "batch_size": 10, "eval_every": 50, "episode_len": 25,
        "learn_rate": 0.25,
    }, agent="td")


def planner_drift(seed: int) -> RunWorkload:
    """Full-information planners on a random 30x4 task whose rewards and
    transitions drift, periodically beside one abrupt switch."""
    return RunWorkload("planner_drift", {
        "task": {
            "kind": "random", "n_states": 30, "n_actions": 4,
            "gamma": 0.9, "mu": 0.2, "patterns": ["periodic", "abrupt"],
            "drift": {"change_times": [80], "magnitude": 1.0,
                      "period": 40, "amplitude": 0.5,
                      "reward_drift": True, "transition_drift": True},
        },
        "methods": [
            {"name": "adaptive_planner", "agent": "planner",
             "schedule": {"mode": "online", "lambda_min": 0.05, "lambda_max": 1.0}},
            {"name": "fixed_planner", "agent": "planner",
             "schedule": {"mode": "fixed", "fixed_value": 0.1}},
        ],
        "seeds": [seed],
        "horizon": 160,
        "eps": 1e-6, "solver_tol": 1e-9,
    }, agent="planner")


WORKLOADS = {
    "td_chain": td_chain,
    "planner_drift": planner_drift,
    "verify_suite": VerifyWorkload,
}
