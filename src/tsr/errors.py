"""Exception types shared across the package."""


class TsrError(Exception):
    """Base class for all errors raised by this package."""


# --- instance file / graph validation ---

class MalformedLine(TsrError):
    pass


class DuplicateEdge(TsrError):
    pass


class SelfLoop(TsrError):
    pass


class ThresholdOutOfRange(TsrError):
    """tau(v) < 1 or tau(v) > d(v); also rejects isolated vertices."""


class IdGap(TsrError):
    """Vertex ids are not a dense 1..n range, or an edge endpoint is out of range."""


class EdgeNotFound(TsrError):
    pass


class UnknownVertex(TsrError):
    pass


class DegreeTooSmall(TsrError):
    pass


class DegreeTooLarge(TsrError):
    pass


# --- activation / certificates ---

class NotAnOrientation(TsrError):
    pass


class PreconditionViolated(TsrError):
    pass


class NotATargetSet(PreconditionViolated):
    pass


class InvariantViolated(TsrError):
    """An internal invariant failed: a fault in this package, not in the input."""


# --- reconfiguration sequences ---

class InvalidInput(TsrError):
    pass


class EndpointSizeMismatch(TsrError):
    pass


class SizeMismatch(TsrError):
    pass


# --- oracle guards ---

class InstanceTooLarge(TsrError):
    pass


# --- solvers ---

class NotATree(TsrError):
    pass


# --- gadgets / reductions ---

class NotA33Vertex(TsrError):
    pass


class NotA33Graph(TsrError):
    pass


class SameVertex(TsrError):
    pass


class BadDegree(TsrError):
    pass


class EmptyFamilySet(TsrError):
    pass
