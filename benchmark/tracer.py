"""Per-layer spans and counters, installed from outside the library.

The tracer replaces public functions of the driftsched modules with
wrappers for the length of a traced round and puts the originals back
afterwards. A function is replaced under every name a loaded driftsched
module binds it to, so ``from .softmdp import soft_policy`` in ``agent``
is traced as well as ``softmdp.soft_policy``. Spans nest: a span's self
time is its duration minus the durations of the spans it encloses.
Spans and counts stay in memory and are read once the round ends.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

# The check functions run_suite calls, by the name their metrics use.
VERIFY_CHECKS = (
    "entropy_range", "entropy_grad_bound", "bregman_equals_kl", "pinsker",
    "lse_lipschitz", "softmax_drift", "softmax_jacobian_tight",
    "prefix_sum_potential", "prefix_average_growth", "clip_compensation",
    "offline_lambda_minimizer", "soft_backup_contraction", "operator_drift",
    "fixed_point_sensitivity", "q_value_bounds", "squared_drift_conversion",
    "surrogate_gap_range", "occupancy_mismatch_bound",
    "occupancy_policy_sensitivity", "fenchel_young_gap",
    "performance_difference", "tradeoff_bounds", "oracle_schedule_bound",
)

# (module, function, self-time metric or None, call-count metric or None).
# A target without a time metric is counted but opens no span, so its
# time stays with the span that called it.
FUNCTIONS = (
    ("agent", "td_train", "agent.td_train_s", None),
    ("agent", "td_step", "agent.td_step_s", "agent.td_step_calls"),
    ("agent", "planner_run", "agent.planner_run_s", None),
    ("agent", "planner_step", "agent.planner_step_s", "agent.planner_step_calls"),
    ("softmdp", "soft_values", "softmdp.soft_values_s", "softmdp.soft_values_calls"),
    ("softmdp", "soft_policy", "softmdp.soft_policy_s", "softmdp.soft_policy_calls"),
    ("softmdp", "soft_bellman_apply", "softmdp.bellman_s", "softmdp.bellman_sweeps"),
    ("softmdp", "policy_eval", "softmdp.policy_eval_s", "softmdp.policy_eval_calls"),
    ("softmdp", "soft_return", "softmdp.soft_return_s", "softmdp.soft_return_calls"),
    ("softmdp", "occupancy", None, "softmdp.occupancy_calls"),
    ("softmdp", "generate_sequence", "softmdp.generate_sequence_s", None),
    ("scheduler", "td_quantile_proxy", "scheduler.s", "scheduler.td_quantile_proxy_calls"),
    ("scheduler", "update_proxy", "scheduler.s", "scheduler.update_proxy_calls"),
    ("scheduler", "online_lambda", "scheduler.s", None),
    ("scheduler", "oracle_lambda", "scheduler.s", None),
    ("scheduler", "offline_lambda", "scheduler.s", None),
    ("scheduler", "eta_from_lambda", "scheduler.s", None),
    ("omd", "run_dynamic", "omd.run_dynamic_s", None),
    ("omd", "md_step", "omd.md_step_s", "omd.md_step_calls"),
    ("omd", "regularized_grad", "omd.regularized_grad_s", None),
    ("simplex", "truncate", "simplex.truncate_s", "simplex.truncate_calls"),
    ("cli", "parse_config", "cli.parse_config_s", None),
    ("cli", "summarize", "cli.summarize_s", None),
    ("metrics", "recovery_time", "metrics.recovery_time_s", None),
    ("metrics", "auc", "metrics.auc_s", None),
) + tuple(
    ("verify", f"_check_{name}", f"verify.{name}_s", None) for name in VERIFY_CHECKS
)

# Inclusive times (span with its children) reported beside the self times.
INCLUSIVE = {"agent.td_step_s": "agent.td_step_incl_s"} | {
    f"verify.{name}_s": f"verify.{name}_incl_s" for name in VERIFY_CHECKS
}

# Sweeps made inside planner_run, split by the drift pattern of its sequence.
PATTERN_SWEEPS = ("periodic", "abrupt")

EXTRA_COUNTS = tuple(f"softmdp.bellman_sweeps_{p}" for p in PATTERN_SWEEPS) + (
    "softmdp.solves", "softmdp.solves_reused", "softmdp.mdps_built",
    "omd.run_dynamic_rounds", "simplex.simplexvec_built", "trace.rows_written",
    "trace.bytes_written", "verify.samples",
)


def metric_units() -> dict:
    """Every metric a traced round reports, with its unit, in a fixed order."""
    units = {}
    for _, _, time_key, count_key in FUNCTIONS:
        if count_key:
            units[count_key] = "count"
        if time_key:
            units[time_key] = "s"
    units["trace.to_csv_s"] = "s"
    units.update({name: "s" for name in INCLUSIVE.values()})
    units.update({name: "count" for name in EXTRA_COUNTS})
    units["trace.bytes_written"] = "B"
    return units


class Tracer:
    """Spans with self time plus counters for one traced round."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self._last_q = None
        self._run_start = None  # (pattern, sweeps so far) when planner_run began
        self.missing = []

    # -- wrappers -------------------------------------------------------

    def _span(self, fn, time_key, count_key, before=None, after=None):
        stack, self_s, incl_s, counts = self._stack, self.self_s, self.incl_s, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if count_key:
                counts[count_key] += 1
            if before:
                before(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[time_key] += elapsed - frame[0]
                incl_s[time_key] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if after:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, count_key, after=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if count_key:
                counts[count_key] += 1
            result = fn(*args, **kwargs)
            if after:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks ----------------------------------------------------------

    def _planner_run_started(self, args, kwargs):
        self._last_q = None
        pattern = getattr(args[0] if args else kwargs["seq"], "pattern", None)
        self._run_start = (pattern, self.counts["softmdp.bellman_sweeps"])

    def _planner_run_done(self, result, args, kwargs):
        pattern, sweeps = self._run_start
        if pattern in PATTERN_SWEEPS:
            done = self.counts["softmdp.bellman_sweeps"] - sweeps
            self.counts[f"softmdp.bellman_sweeps_{pattern}"] += done

    def _planner_step_started(self, args, kwargs):
        # planner_step(state, mdp_t, q_star_t, cfg, eps): a round whose
        # solved table equals the previous round's reused the last solve
        q = np.asarray(args[2] if len(args) > 2 else kwargs["q_star_t"])
        if self._last_q is not None and np.array_equal(q, self._last_q):
            self.counts["softmdp.solves_reused"] += 1
        else:
            self.counts["softmdp.solves"] += 1
        self._last_q = np.array(q)

    def _sequence_built(self, result, args, kwargs):
        self.counts["softmdp.mdps_built"] += len(result)

    def _dynamic_run(self, result, args, kwargs):
        self.counts["omd.run_dynamic_rounds"] += len(result)

    def _csv_written(self, result, args, kwargs):
        trace, path = args[0], args[1] if len(args) > 1 else kwargs["path"]
        self.counts["trace.rows_written"] += len(trace)
        self.counts["trace.bytes_written"] += os.path.getsize(path)

    def _suite_done(self, result, args, kwargs):
        self.counts["verify.samples"] += sum(r.samples for r in result)

    # -- installation ---------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Rebind original to wrapper in every loaded driftsched module."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "driftsched" or name.startswith("driftsched.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _replace_attr(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from driftsched import cli  # noqa: F401  (cli imports every module the targets name)
        from driftsched import simplex, trace, verify

        hooks_before = {
            "planner_run": self._planner_run_started,
            "planner_step": self._planner_step_started,
        }
        hooks_after = {
            "planner_run": self._planner_run_done,
            "generate_sequence": self._sequence_built,
            "run_dynamic": self._dynamic_run,
        }
        for module_name, fn_name, time_key, count_key in FUNCTIONS:
            module = sys.modules[f"driftsched.{module_name}"]
            original = getattr(module, fn_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{fn_name}")
                continue
            if time_key:
                wrapper = self._span(original, time_key, count_key,
                                     hooks_before.get(fn_name), hooks_after.get(fn_name))
            else:
                wrapper = self._counter(original, count_key, hooks_after.get(fn_name))
            self._replace(original, wrapper)

        self._replace_attr(trace.RunTrace, "to_csv", self._span(
            trace.RunTrace.to_csv, "trace.to_csv_s", None, after=self._csv_written))
        self._replace_attr(simplex.SimplexVec, "__post_init__", self._counter(
            simplex.SimplexVec.__post_init__, "simplex.simplexvec_built"))
        self._replace(verify.run_suite,
                      self._counter(verify.run_suite, None, self._suite_done))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict:
        """Every per-layer metric, 0 where the round never reached the layer."""
        inclusive = {incl: self_key for self_key, incl in INCLUSIVE.items()}
        out = {}
        for name, unit in metric_units().items():
            if unit != "s":
                out[name] = self.counts.get(name, 0)
            elif name in inclusive:
                out[name] = self.incl_s.get(inclusive[name], 0.0)
            else:
                out[name] = self.self_s.get(name, 0.0)
        return out
