"""Exception hierarchy shared by all gcfit modules, and the default cap
that `EnumerationLimit` enforces, which the CLI parser reads without
importing ``graphs``."""


class GcfitError(Exception):
    """Base class for all gcfit errors."""


class SchemaMismatch(GcfitError):
    """Two objects that must share a variable schema do not."""


class UnknownVariable(GcfitError):
    """A variable name is not part of the schema."""


class InvalidState(GcfitError):
    """A state is not an integer in 0..cardinality-1 of its variable."""


class EmptyDataset(GcfitError):
    """Empirical estimation from zero rows with zero smoothing."""


class ZeroProbabilityEvidence(GcfitError):
    """Conditioning on an event of probability zero."""

    def __init__(self, variable, value):
        self.variable = variable
        self.value = value
        super().__init__(f"conditioning event has probability zero: {variable}={value}")


class UnknownEdge(GcfitError):
    """An edge is not present in the graph, in either direction."""


# the most undirected edges enumerated by default: at most 2**24 orientations
DEFAULT_ENUMERATION_CAP = 24


class EnumerationLimit(GcfitError):
    """Too many undirected edges to enumerate orientations."""

    def __init__(self, n_undirected, limit):
        self.n_undirected = n_undirected
        self.limit = limit
        super().__init__(
            f"{n_undirected} undirected edges exceeds enumeration cap {limit}"
        )


class MissingIntervention(GcfitError):
    """No interventional dataset for a positive-probability value."""

    def __init__(self, node, value):
        self.node = node
        self.value = value
        super().__init__(f"missing interventional data for do({node})={value}")


class ParseError(GcfitError):
    """A file failed strict parsing; carries location information."""

    def __init__(self, message, path=None, line=None, column=None):
        self.path = path
        self.line = line
        self.column = column
        loc = ""
        if path is not None:
            loc += str(path)
        if line is not None:
            loc += f":{line}"
        if column is not None:
            loc += f":{column}"
        super().__init__(f"{loc}: {message}" if loc else message)
