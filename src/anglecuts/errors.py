"""Exception hierarchy shared by all anglecuts modules."""


class AngleCutsError(Exception):
    """Base class for every error raised by this package."""


class ParseError(AngleCutsError):
    """Input document is malformed (bad JSON, missing field, bad rational string)."""


class ValidationError(AngleCutsError):
    """Input parses but violates a model invariant (names the offending element)."""


class DisconnectedError(ValidationError):
    """The (sub)graph required to be connected is not."""


class UnknownBusError(AngleCutsError):
    """A bus id was referenced that the network does not contain."""


class BusNotOnCycleError(AngleCutsError):
    """A cycle split was requested at a bus that is not on the cycle."""


class SubsetNotInCycleError(AngleCutsError):
    """A line subset handed to the cycle-inequality builder leaves the cycle."""


class InvalidBigMError(AngleCutsError):
    """The supplied big-M is smaller than the longer-path weight."""


class MissingVariableError(AngleCutsError):
    """A fractional point does not cover a variable a cut needs."""


class CapExceededError(AngleCutsError):
    """An exact oracle was asked to run beyond its hard instance caps."""


class UnboundedError(AngleCutsError):
    """The linear program or polytope is unbounded."""


class AllPatternsInfeasibleError(AngleCutsError):
    """Every switching pattern of the brute-force enumeration was infeasible."""
