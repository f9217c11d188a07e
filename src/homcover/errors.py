"""Exception types shared across the package."""


class HomcoverError(Exception):
    """Base class for all package-specific errors."""


class ParseError(HomcoverError, ValueError):
    """Malformed input: a graph or cover document, or a command-line value."""


class NotConnected(HomcoverError):
    """Operation requires a connected graph."""


class NotTwoEdgeConnected(HomcoverError):
    """Operation requires a bridgeless connected graph."""


class NotSpanningTree(HomcoverError):
    """Edge set is not a maximal spanning tree of the graph."""


class SizeCapExceeded(HomcoverError):
    """Requested object would exceed the configured vertex cap, or the
    memory that can be allocated."""


class CapExceeded(HomcoverError):
    """Spanning-tree count exceeds the enumeration cap."""


class NonConstantNe(HomcoverError):
    """Per-edge tree-avoidance counts are not all equal."""


class PathMismatch(HomcoverError):
    """Walk is not contiguous or does not start where required."""


class EndpointMismatch(HomcoverError):
    """Two walks were expected to share both endpoints."""


class LengthMismatch(HomcoverError, ValueError):
    """Chain or label length does not match the expected dimension."""


class NonBinaryCoordinates(HomcoverError, ValueError):
    """Vector has coordinates outside {0, 1/2}."""


class UnsupportedModulus(HomcoverError, ValueError):
    """Cover modulus m outside the supported range."""


class InvalidParameter(HomcoverError, ValueError):
    """Numeric parameter outside its valid range."""


class NoArcTable(HomcoverError, ValueError):
    """Graph has no signed-arc table: no cover build wrote it."""


class EndpointOutOfRange(HomcoverError, IndexError):
    """Edge endpoint is not a vertex of the graph."""


class FaultNotInjected(HomcoverError):
    """A self-test fault left every record of its check without a violation."""
