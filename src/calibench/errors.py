"""Exception hierarchy for calibench.

Every contract violation raises a dedicated subclass of :class:`CalibenchError`
so callers (and the CLI's exit-code mapping) can distinguish failure classes
without parsing messages.  Plain file-system failures are *not* wrapped: they
surface as the builtin ``OSError``.
"""

__all__ = [
    "CalibenchError",
    "MissingColumnError",
    "NonBinaryLabelError",
    "NonNumericFeatureError",
    "EmptyFileError",
    "IndexOutOfRangeError",
    "DegenerateClassError",
    "TooFewSamplesPerClassError",
    "DimensionMismatchError",
    "NotConvergedError",
    "MalformedModelError",
    "DegenerateLabelsError",
    "LengthMismatchError",
    "ProbabilityOutOfRangeError",
    "NonFiniteScoreError",
    "SingleClassError",
    "TooFewGroupsError",
    "DegenerateGroupingError",
    "InvalidDFError",
    "DegenerateVarianceError",
    "TooFewSamplesError",
    "SampleSizeOutOfRangeError",
    "EmptyFamilyError",
    "IncompleteRecordsError",
    "InvalidSpecError",
    "SchemaVersionMismatchError",
    "CalibrationWarning",
]


class CalibenchError(Exception):
    """Base class for all calibench-specific errors."""


# --- data ingestion / dataset construction ---------------------------------

class MissingColumnError(CalibenchError):
    """A required column is absent from a CSV header."""


class NonBinaryLabelError(CalibenchError):
    """A label cell holds a value other than 0 or 1."""


class NonNumericFeatureError(CalibenchError):
    """A feature cell could not be parsed as a number."""


class EmptyFileError(CalibenchError):
    """A CSV file contains no data rows."""


class IndexOutOfRangeError(CalibenchError):
    """A feature index is outside [0, d)."""


class DegenerateClassError(CalibenchError):
    """A class has too few samples to split."""


class TooFewSamplesPerClassError(CalibenchError):
    """A class has fewer samples than the requested fold count."""


# --- model fitting ----------------------------------------------------------

class DimensionMismatchError(CalibenchError):
    """Feature vector length does not match the fitted model."""


class NotConvergedError(CalibenchError):
    """An iterative fit hit max_iter before meeting its tolerance."""


class MalformedModelError(CalibenchError, ValueError):
    """A serialized model describes no valid model (e.g. a tree with a cycle)."""


# --- calibration ------------------------------------------------------------

class DegenerateLabelsError(CalibenchError):
    """Calibration labels contain a single class and no ridge term exists."""


# --- metrics ----------------------------------------------------------------

class LengthMismatchError(CalibenchError):
    """Paired vectors have different lengths."""


class ProbabilityOutOfRangeError(CalibenchError):
    """A probability lies outside [0, 1] or is not finite."""


class NonFiniteScoreError(CalibenchError):
    """A score to be ranked is NaN or infinite."""


class SingleClassError(CalibenchError):
    """AUC needs at least one positive and one negative label."""


class TooFewGroupsError(CalibenchError):
    """Hosmer-Lemeshow needs n >= groups >= 3."""


class DegenerateGroupingError(CalibenchError):
    """Fewer than 3 effective Hosmer-Lemeshow groups after merging."""


# --- statistics -------------------------------------------------------------

class InvalidDFError(CalibenchError):
    """Degrees of freedom must be a positive integer."""


class DegenerateVarianceError(CalibenchError):
    """A statistic is undefined because the sample variance is zero."""


class TooFewSamplesError(CalibenchError):
    """An estimator needs more samples than were given."""


class SampleSizeOutOfRangeError(CalibenchError):
    """Shapiro-Wilk supports 3 <= n <= 5000."""


class EmptyFamilyError(CalibenchError):
    """Bonferroni correction over an empty p-value family."""


# --- harness / persistence --------------------------------------------------

class IncompleteRecordsError(CalibenchError):
    """Method comparison requires complete, aligned per-run records."""


class InvalidSpecError(CalibenchError):
    """A study setup (ground truth, sizes, trials) is invalid."""


class SchemaVersionMismatchError(CalibenchError):
    """A results file does not follow the schema this library reads: another
    schema version, not JSON, or a missing, unknown or mistyped key."""


class CalibrationWarning(UserWarning):
    """Non-fatal calibration condition (e.g. single-class labels with ridge)."""
