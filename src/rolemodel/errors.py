"""Exception hierarchy shared across the package."""


class RoleModelError(Exception):
    """Base class for all numerical/contract failures raised by this package."""


class DimensionMismatch(RoleModelError):
    """Two objects that must share an alphabet or shape do not."""


class DimensionTooLarge(RoleModelError):
    """Input exceeds the enumeration-friendly bound of an exact kernel."""


class AbsoluteContinuityViolation(RoleModelError):
    """D(p||q) requested where p puts mass on a point with q = 0."""


class ZeroMassAtTruth(RoleModelError):
    """A message assigns zero probability to the true symbol.

    Carries ``index``, the row of the messages passed to ``soft_mi``; from
    ``minsum.evaluate_table`` that is the (bin, truth) pair row 2 * bin +
    truth. Callers typically floor their messages first.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"message {index} has zero mass at the true symbol")


class BinOutOfRange(RoleModelError):
    """Sample statistic does not resolve to a valid accumulator bin."""


class DegenerateRow(RoleModelError):
    """A constraint-node output row normalized to zero (all configurations excluded).

    Carries ``row`` and, for a batched node call, ``index`` (the matrix's
    position in the batch: the constraint in BP, the trial in EXIT).
    """

    def __init__(self, row: int, index: int | None = None):
        self.row = row
        self.index = index
        where = f"row {row}" if index is None else f"matrix {index}, row {row}"
        super().__init__(f"{where} excluded every configuration")


class BisectionFailure(RoleModelError):
    """A root search failed: its target is outside the range, or the steps ran out before it."""
