"""Exception hierarchy.

Every error raised on a documented failure path derives from NlprobError, so
callers can catch the package root. A non-finite number raises NonFiniteError
(also a ValueError); other input-contract violations that the public ops do
not enumerate (wrong types) raise plain ValueError or TypeError as usual.
"""

from __future__ import annotations


class NlprobError(Exception):
    """Root of the package's semantic errors."""


class NegativeWeightError(NlprobError):
    """A probability weight is below -1e-15."""


class NotNormalizedError(NlprobError):
    """Weights do not sum to 1 within 1e-12."""


class EmptyVectorError(NlprobError):
    """An input collection that must be nonempty is empty."""


class DimensionMismatchError(NlprobError):
    """Two objects that must live on the same outcome space do not."""


class IndexOutOfRangeError(NlprobError):
    """An outcome or list index falls outside the valid range."""


class ChainViolationError(NlprobError):
    """The Choquet/linear expectation ordering broke; signals an internal bug."""


class BadExponentsError(NlprobError):
    """Conjugate exponents fail p, q > 1 with 1/p + 1/q = 1 (tol 1e-12)."""


class NonPositiveFunctionError(NlprobError):
    """A function required to be positive (at the threshold) is not."""


class NegativeFunctionValueError(NlprobError):
    """A function required to be nonnegative takes a negative value."""


class OracleTooLargeError(NlprobError):
    """Joint-expectation enumeration would exceed the configured cap."""


class NonPositiveWidthError(NlprobError):
    """A ramp width is not strictly positive."""


class MixedMonotonicityError(NlprobError):
    """Functions that must share one monotone direction do not."""


class POutOfRangeError(NlprobError):
    """A probability or norm exponent parameter is outside its open range."""


class BetaOutOfRangeError(NlprobError):
    """Schedule shape parameter beta is outside its admissible interval."""


class AlphaOutOfRangeError(NlprobError):
    """Moment parameter alpha is outside (0, 1]."""


class DegenerateLogError(NlprobError):
    """A coordinate index < 1 would degenerate the log(i+1) scaling."""


class UnsupportedModelError(NlprobError, ValueError):
    """An operation does not apply to the model's joint semantics."""


class SimulationOrderError(NlprobError):
    """Upper-centred partial sums exceeded lower-centred ones at some step;
    signals an internal bug.

    The check is exact: centres c_up >= c_lo, monotone rounding of
    subtraction and addition, and multiplication or division by the
    positive a_i and A_n keep every float S_n^{upper} <= S_n^{lower}, so one
    ulp above is a fault."""


class NonFiniteError(NlprobError, ValueError):
    """A number that must be finite is inf or NaN, given or by overflow."""


class LengthMismatchError(NlprobError):
    """Two sequences that must align by index have incompatible lengths."""


class BadStrategyParamError(NlprobError):
    """An adversary strategy parameter is missing or out of range."""


class ScheduleInvalidError(NlprobError):
    """A weight schedule fails its hypothesis: when built, or at a horizon."""


class ConfigError(NlprobError):
    """Root for experiment-configuration problems (CLI exit code 2)."""


class ConfigParseError(ConfigError):
    """Configuration text is not valid JSON; message carries the position."""


class ConfigValidationError(ConfigError):
    """Configuration parsed but a field is missing/invalid; message names it."""
