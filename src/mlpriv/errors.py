"""Exception and warning types shared across the package."""


class MlprivError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteError(MlprivError):
    """Input contains NaN or infinite values."""


class FormatError(MlprivError):
    """An input file is malformed: a binary file's magic, header or payload, or a text line."""


class ShapeMismatchError(MlprivError):
    """Array shapes are inconsistent with the operation's contract."""


class MissingLanguageError(MlprivError):
    """Fewer than two languages available for the requested layer."""


class ZeroNormRowError(MlprivError):
    def __init__(self, index: int, which: str = "X"):
        self.index = index
        super().__init__(f"row {index} of {which} has zero norm")


class NonFiniteLossError(NonFiniteError, ValueError):
    """A per-language loss is NaN or infinite."""


class UnknownNameError(MlprivError, ValueError):
    """A metric name is not one the package defines."""


class DuplicateKeyError(MlprivError, ValueError):
    """A manifest already holds an entry for this (language, layer) key."""


class DegenerateInputError(MlprivError):
    """Input has no usable variance (e.g. all points identical)."""


class DimensionTooSmallError(MlprivError):
    """Point cloud has fewer than two dimensions."""


class LengthMismatchError(MlprivError):
    """Paired vectors differ in length."""


class TooFewSentencesError(MlprivError):
    """RSA needs at least three rows per matrix."""


class TooFewLanguagesError(MlprivError):
    """Operation needs at least two languages."""


class TupleLayoutError(MlprivError):
    """Dataset is not tuple-major: example i * |L| + q must be tuple i in language q."""


class DomainError(MlprivError):
    """Scalar parameter outside its valid domain."""


class UnboundedError(MlprivError):
    """Privacy loss is infinite at every available order."""


class UnsatisfiableError(MlprivError):
    """No noise multiplier within the search bracket meets the target epsilon."""


class InvalidConfigError(MlprivError, ValueError):
    """A model spec, training config or run variant holds an invalid value."""


class ExcludeIndexError(MlprivError, IndexError):
    """A run variant excludes an example index outside the dataset."""


class CheckpointOrderError(MlprivError, ValueError):
    """A checkpoint set would be empty (none given, or k < 1) or its steps do not increase."""


class EmptyBatchError(MlprivError):
    """A training batch holds no example once its exclusion is masked out."""


class OutOfRangeError(MlprivError):
    """Step index outside the training schedule."""


class DivergenceError(MlprivError):
    """Training loss diverged or parameters became non-finite."""

    def __init__(self, step: int, detail: str = ""):
        self.step = step
        super().__init__(f"training diverged at step {step}: {detail}")


class UndefinedMarginError(MlprivError):
    """Interpretability margin premise (p > p_2 and p > p_d) fails."""


class InternalConsistencyError(MlprivError):
    """A metric left its analytic range by more than floating-point slack."""


class DegenerateInputWarning(UserWarning):
    """A rank vector or RDM triangle was constant; correlation reported as 0."""
