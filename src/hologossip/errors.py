"""Exception types shared across the package."""


class HologossipError(Exception):
    """Base class for all errors raised by this package."""


# -- graph construction and topology ---------------------------------------

class EmptyGraph(HologossipError):
    """Raised when a graph has no nodes."""


class SelfLoop(HologossipError):
    """Raised on an edge joining a node to itself."""


class DuplicateEdge(HologossipError):
    """Raised when the same undirected edge is given twice."""


class DisconnectedGraph(HologossipError):
    """Raised when some node is unreachable from node 1."""


class InvalidNode(HologossipError):
    """Raised on a node index outside 1..n."""


# -- weights and walks ------------------------------------------------------

class UnknownEdge(HologossipError):
    """Raised when an edge does not belong to the graph."""


class InvalidWalk(HologossipError):
    """Raised when consecutive walk nodes are not joined by an edge."""


class WeightOutOfRange(HologossipError):
    """Raised when an averaging weight falls outside the open interval (0, 1)."""


class MixedScalarKinds(HologossipError):
    """Raised when exact rationals and floats are mixed in one value set."""


# -- limits and design ------------------------------------------------------

class NotHolonomic(HologossipError):
    """Raised when an operation requires cycle-balanced weights but got none."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class UnrepresentableLimit(HologossipError):
    """Raised when a float limit entry lies below the float64 range."""


class NonInteriorVector(HologossipError):
    """Raised on an empty vector, a nonpositive or NaN entry, or a wrong length."""


class NotUnitSum(HologossipError):
    """Raised on a probability vector whose entries do not sum to one."""


class ParameterOutOfRange(HologossipError):
    """Raised on a box parameter outside the open interval (0, 1), a ratio
    that is not positive and finite, a box point or ratio tuple of the wrong
    length, or a negative sampling seed."""


# -- engine ------------------------------------------------------------------

class NotStochastic(HologossipError):
    """Raised when a matrix is not row stochastic."""


class GraphMismatch(HologossipError):
    """Raised when a weight set and a schedule refer to different graphs."""


class InvalidSchedule(HologossipError):
    """Raised on an empty period, a step count below one, or a missing or
    negative seed."""


# -- file and configuration surface ------------------------------------------

class FileFormatError(HologossipError):
    """Raised on malformed input files; message carries file/line context."""
