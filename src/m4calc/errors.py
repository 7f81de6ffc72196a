"""Exception types shared across the engine."""


class M4CalcError(Exception):
    """Base class for all engine errors."""


class DegenerateForm(M4CalcError):
    pass


class NonIntegralVector(M4CalcError):
    pass


class DependentVectors(M4CalcError):
    pass


class NotCharacteristic(M4CalcError):
    pass


class AmbientMismatch(M4CalcError):
    pass


class UnknownSW(M4CalcError):
    pass


class NotAKnot(M4CalcError):
    pass


class NotFibered(M4CalcError):
    pass


class NotInNodeNeighborhood(M4CalcError):
    pass


class BadPlumbing(M4CalcError):
    pass


class DegenerateComplement(M4CalcError):
    pass


class NotSquareZero(M4CalcError):
    pass


class UnknownSeed(M4CalcError):
    pass


class NoWall(M4CalcError):
    pass


class OddDimension(M4CalcError):
    pass


class BadArgument(M4CalcError, ValueError):
    pass


class UnknownTorus(M4CalcError, KeyError):
    __str__ = Exception.__str__  # KeyError would print the message's repr


class BookkeepingError(M4CalcError):
    """Incremental (e, sigma, t) bookkeeping disagrees with the recomputation."""


class ScriptError(M4CalcError):
    """Raised for construction-script problems; carries positioned diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.message for d in self.diagnostics))
