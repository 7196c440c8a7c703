"""Exception hierarchy shared by all modules."""


class TroplogError(Exception):
    """Base class for all library errors."""

    code = "Error"


class NonZeroSum(TroplogError):
    """Leg slopes do not sum to zero, so no balanced function exists."""

    code = "NonZeroSum"


class LengthMismatch(TroplogError):
    """A slope vector has the wrong number of entries for the tree."""

    code = "LengthMismatch"


class UnstableRange(TroplogError):
    """Requested a stable moduli object with too few marked points."""

    code = "UnstableRange"


class SizeLimit(TroplogError):
    """A CLI command above its size limit: a moduli complex too large to build,
    or a result integer too long to print."""

    code = "SizeLimit"


class NoSuchEdge(TroplogError):
    code = "NoSuchEdge"


class NoSuchLeg(TroplogError):
    code = "NoSuchLeg"


class IncompleteFan(TroplogError):
    """Subdivision requires a complete target fan."""

    code = "IncompleteFan"


class UnsupportedDimension(TroplogError):
    """Operation only implemented up to ambient dimension 2."""

    code = "UnsupportedDimension"


class ParseError(TroplogError):
    """Malformed JSON input; message carries field context."""

    code = "ParseError"
