"""The names driftsched exports, pinned: adding or removing API shows up here."""

import dataclasses
import types

import driftsched

PUBLIC = [
    "BoundaryIterate", "CheckReport", "ConfigError", "DriftSpec", "EmptyBatch",
    "EvalCurve", "ExplicitConstants", "InvalidEpsilon", "InvalidSpec", "LengthMismatch",
    "MissingScheduleMetadata", "NegativeError", "NoConvergence", "NoPreWindow",
    "NonFiniteGradient", "NonPositiveTemperature", "ProxyState", "RunTrace",
    "SamplerFailure", "ScheduleConfig", "ShapeMismatch", "SimplexVec", "SingularSystem",
    "SoftMdpSequence", "SupportMismatch", "TabularMdp", "TooShort", "UnknownKey",
    "ZeroBaseline", "auc", "bound_rhs", "bregman_neg_entropy", "check_identity",
    "check_inequality", "drop_ratio", "eta_from_lambda", "generate_sequence",
    "goal_chain_mdp", "kl_div", "log_sum_exp", "neg_entropy", "next_lambda", "occupancy",
    "offline_lambda", "online_lambda", "oracle_lambda", "planner_run", "planner_run_many",
    "proxy_bound_rhs", "random_mdp", "recovery_time", "run_dynamic", "run_dynamic_many",
    "run_suite", "soft_bellman_apply", "soft_policy", "soft_return", "soft_values",
    "softmax", "solve_soft_q", "td_quantile_proxy", "td_train", "td_train_many",
    "truncate", "update_proxy", "variation_budget",
]


def test_public_names_are_pinned():
    assert PUBLIC == sorted(PUBLIC)
    names = sorted(name for name in dir(driftsched) if not name.startswith("_")
                   and not isinstance(getattr(driftsched, name), types.ModuleType))
    assert names == PUBLIC


def test_run_trace_holds_columns_and_meta():
    # a carrier keeps no per-round history beside its columns
    assert [f.name for f in dataclasses.fields(driftsched.RunTrace)] == ["columns", "meta"]
