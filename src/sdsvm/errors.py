"""Exception types shared across the package, and the helpers that turn
failures into them: the pipeline stage wrapper, the text reader and writer.

Everything raised on purpose derives from SdsvmError so callers (and the
CLI) can separate domain failures from programming errors.
"""

import sys


class SdsvmError(Exception):
    """Base class for all errors raised by this package."""


class KernelTypeError(SdsvmError):
    """A sample's form (vector, string or key) does not match the kernel."""


class DimensionError(SdsvmError):
    """Vector lengths or matrix shapes do not line up."""


class EmptyInput(SdsvmError):
    """An operation that needs at least one value received none."""


class InvalidPair(SdsvmError):
    """A projection direction was requested through a single point (i == j)."""


class DegenerateDirection(SdsvmError):
    """The two chosen samples coincide in feature space (zero norm)."""


class NoValidDirections(SdsvmError):
    """No non-degenerate projection direction exists for the data set."""


class TooFewSamples(SdsvmError):
    """Outlyingness needs at least 3 samples per data set."""


class SingleClassError(SdsvmError):
    """SVM training requires samples from both classes."""


class ConvergenceError(SdsvmError):
    """The dual solver hit its iteration cap before reaching tolerance."""

    def __init__(self, message, max_violation=None):
        super().__init__(message)
        self.max_violation = max_violation


class GroupEmptyAfterTrim(SdsvmError):
    """Flooring kappa * group size left a group with zero retained samples."""


class ParseError(SdsvmError):
    """A data file could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class LabelError(SdsvmError):
    """A label value falls outside the declared coding."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class MissingLabel(SdsvmError):
    """A sequence record has no matching entry in the labels file."""

    def __init__(self, sample_id):
        super().__init__(f"no label found for id {sample_id!r}")
        self.sample_id = sample_id


class DuplicateId(SdsvmError):
    """The same id occurs twice in a dataset or labels file."""

    def __init__(self, sample_id):
        super().__init__(f"duplicate id {sample_id!r}")
        self.sample_id = sample_id


class IoError(SdsvmError):
    """Reading or writing an output destination failed."""


class SerializationError(SdsvmError):
    """A model or fit report could not be written or read back."""


class PipelineError(SdsvmError):
    """Wraps an upstream error with the pipeline stage it occurred in."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r}: {cause}")
        self.stage = stage
        self.cause = cause


def run_stage(name, fn, *args, **kwargs):
    """Call fn, naming `name` as the stage of any SdsvmError it raises.

    A PipelineError passes through unchanged, so the innermost stage wins.
    """
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except SdsvmError as exc:
        raise PipelineError(name, exc) from exc


def read_text(path) -> str:
    """Read a UTF-8 text file; an OSError or undecodable bytes become an IoError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path!r}: {exc}") from exc


def write_text(destination, text) -> None:
    """Write text to '-' (stdout), an open stream, or a path.

    Files are written as UTF-8 with Unix line ends; an OSError becomes an
    IoError.
    """
    try:
        if destination == "-":
            sys.stdout.write(text)
        elif hasattr(destination, "write"):
            destination.write(text)
        else:
            with open(destination, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {destination!r}: {exc}") from exc
