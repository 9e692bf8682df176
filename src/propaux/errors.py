"""Exception hierarchy for the toolkit.

Two branches matter to callers: ``DataError`` covers invalid or degenerate
input (bad files, impossible designs, populations without usable variation),
while ``NumericalError`` covers well-formed input whose closed-form answer
does not exist (singular optimality systems, negative variance expressions).
The command line maps the branches to distinct exit codes.
"""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class DataError(ToolkitError):
    """Invalid or degenerate input data, design, or configuration."""


class NumericalError(ToolkitError):
    """Sound input for which no numerically valid result exists."""


# --- data / validation errors -------------------------------------------------

class DegenerateAttribute(DataError):
    """Every unit has (or lacks) the attribute; the proportion is 0 or 1."""


class DegenerateAuxiliary(DataError):
    """The auxiliary variable has no variance, or too little or too much to
    standardize."""


class ZeroMean(DataError):
    """The auxiliary population mean is zero; ratio transforms are undefined."""


class InvalidDesign(DataError):
    """Sample size outside 2 <= n <= N."""


class DuplicateIndex(DataError):
    """A sample index set contains repeated indices."""


class IndexOutOfRange(DataError):
    """A sample index does not address a population unit."""


class ZeroSampleMean(DataError):
    """The sample auxiliary mean is zero; the ratio estimate is undefined."""


class NonpositiveTransform(DataError):
    """A linear auxiliary transform a*x + b is not strictly positive."""


class NonpositiveBase(DataError):
    """A base raised to a real power is not strictly positive."""


class TooLarge(DataError):
    """Exact enumeration or Monte Carlo was asked for more samples than
    ``montecarlo.ENUMERATION_LIMIT``."""


class DegenerateGeneration(DataError):
    """Synthetic population generation exhausted its retry budget."""


class InvalidConfig(DataError):
    """An estimator configuration is inconsistent or incomplete."""


class ParseError(DataError):
    """A data file failed to parse."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class SchemaError(DataError):
    """A data file has the wrong shape (header, missing keys, wrong types)."""


def overflow_message(exc: OverflowError) -> str:
    """How a float overflow reads: Python's float ``**`` raises
    ``OverflowError`` where ``*`` would give inf, its message last in
    ``args`` (after the errno, when there is one)."""
    return f"overflow: {exc.args[-1]}"


# --- numerical errors ---------------------------------------------------------

class DegenerateMoments(NumericalError):
    """The moment combination (kurtosis - 1 - skewness^2) is not positive."""


class SingularSystem(NumericalError):
    """The optimality system for a constant pair is (near-)singular."""


class NegativeMse(NumericalError):
    """A closed-form mean squared error evaluated negative."""


class NonpositiveMse(NumericalError):
    """A relative-efficiency denominator is not strictly positive."""
