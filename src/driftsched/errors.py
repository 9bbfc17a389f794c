"""Exception types raised by the library's contract checks."""


class SupportMismatch(ValueError):
    """x puts mass where y has none, so KL(x, y) is infinite."""


class NonPositiveTemperature(ValueError):
    """Softmax / log-sum-exp temperature must be strictly positive."""


class InvalidEpsilon(ValueError):
    """Simplex floor outside (0, 1/K]."""


class NonFiniteGradient(ValueError):
    """Gradient fed to a mirror step contains NaN or infinity."""


class BoundaryIterate(ValueError):
    """Entropy gradient requested at a point with a zero coordinate."""


class LengthMismatch(ValueError):
    """Loss stream and comparator sequence differ in length."""


class MissingScheduleMetadata(ValueError):
    """Trace lacks the lambda/alpha columns a bound computation needs."""


class EmptyBatch(ValueError):
    """Quantile proxy asked for on an empty error batch."""


class NegativeError(ValueError):
    """Absolute-error batch contains a negative entry."""


class ShapeMismatch(ValueError):
    """Array shapes inconsistent with the MDP dimensions."""


class NoConvergence(RuntimeError):
    """Fixed-point iteration exceeded its iteration budget."""


class SingularSystem(RuntimeError):
    """Occupancy linear system failed to solve (numerical breakdown)."""


class InvalidSpec(ValueError):
    """Drift specification is internally inconsistent."""


class TooShort(ValueError):
    """Curve has fewer than two points, so the integral is undefined."""


class ZeroBaseline(ValueError):
    """Normalization requested against a zero-area baseline curve."""


class NoPreWindow(ValueError):
    """No evaluation points precede a change point."""


class SamplerFailure(RuntimeError):
    """A check's input sampler raised instead of producing a sample."""


class ConfigError(ValueError):
    """Experiment config failed validation; message names the key."""


class UnknownKey(ConfigError):
    """Sweep parameter does not exist in the config schema."""
