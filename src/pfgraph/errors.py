"""Exception hierarchy for the pfgraph package.

Everything raised on purpose derives from :class:`PFGError`, so callers
(including the CLI) can catch one base class and map it to an exit code.
Data-level problems that are better reported than raised travel as
ValidationReport objects instead; see :mod:`pfgraph.core`.
"""


class PFGError(Exception):
    """Base class for all pfgraph domain errors."""


class ConstraintViolation(PFGError):
    """A degree pair or graph violates the Pythagorean membership constraints.

    When raised while validating a whole document, ``report`` carries the
    full ValidationReport.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class LabelClash(PFGError):
    """Vertex labels cannot be composed unambiguously into pair labels."""


class JoinOverlap(PFGError):
    """Join requires the two vertex sets to be disjoint."""


class NotStrong(PFGError):
    """Operation requires a strong graph and the input is not one."""


class NotComplete(PFGError):
    """Operation requires a complete graph and the input is not one."""


class SearchCapExceeded(PFGError):
    """Morphism search refused: source graph larger than the configured cap."""


class UnknownVertex(PFGError):
    """A mapping refers to vertex labels that are not in the graphs."""


class MalformedDocument(PFGError):
    """Graph document is not syntactically or schematically well-formed."""


class DuplicateVertex(PFGError):
    """Graph document declares the same vertex id twice."""


class DuplicateEdge(PFGError):
    """Graph document declares the same unordered edge twice."""


class DanglingEdge(PFGError):
    """A graph or graph document has an edge whose endpoint is not a declared vertex."""
