"""Variation-aware entropy scheduling on the simplex and tabular soft MDPs."""

from ._version import __version__
from .errors import (
    AlignmentError,
    BoundaryIterate,
    ConfigError,
    EmptyBatch,
    InvalidEpsilon,
    InvalidSpec,
    LengthMismatch,
    MissingScheduleMetadata,
    NegativeError,
    NoConvergence,
    NonFiniteGradient,
    NonPositiveTemperature,
    NoPreWindow,
    SamplerFailure,
    ShapeMismatch,
    SingularSystem,
    SupportMismatch,
    TooShort,
    UnknownKey,
    ZeroBaseline,
)
from .simplex import (
    SimplexVec,
    bregman_neg_entropy,
    kl_div,
    log_sum_exp,
    neg_entropy,
    softmax,
    truncate,
)
from .scheduler import (
    ProxyState,
    ScheduleConfig,
    eta_from_lambda,
    next_lambda,
    offline_lambda,
    online_lambda,
    oracle_lambda,
    td_quantile_proxy,
    update_proxy,
)
from .omd import (
    ExplicitConstants,
    bound_rhs,
    proxy_bound_rhs,
    run_dynamic,
    run_dynamic_many,
)
from .softmdp import (
    DriftSpec,
    SoftMdpSequence,
    TabularMdp,
    decoy_mdp,
    generate_sequence,
    goal_chain_mdp,
    occupancy,
    policy_eval,
    random_mdp,
    sequence_from_json,
    sequence_to_json,
    soft_bellman_apply,
    soft_policy,
    soft_return,
    soft_values,
    solve_soft_q,
    variation_budget,
)
from .agent import (
    planner_run,
    planner_run_many,
    rl_dynamic_regret,
    td_train,
    td_train_many,
)
from .metrics import EvalCurve, auc, drop_ratio, n_auc, recovery_time, smooth_evals
from .trace import RunTrace
from .verify import CheckReport, check_identity, check_inequality, run_suite
