"""Exception types shared across the package."""


class OpmlabError(Exception):
    """Base class for all package-specific errors."""


class InvalidGeometry(OpmlabError):
    """Geometry parameters are inconsistent (axes, capacity, injectivity)."""


class InsideDomain(OpmlabError):
    """A point required to be exterior lies inside the domain."""


class DomainViolation(OpmlabError):
    """A map was requested outside its region of validity."""


class NoConvergence(OpmlabError):
    """An iterative inversion failed to converge within its budget."""


class CurveRequired(OpmlabError):
    """Operation is defined only for closed curves, not arcs."""


class EmptySupport(OpmlabError):
    """A measure or support set with no points was supplied."""


class RankDeficient(OpmlabError):
    """Too few support points for the requested polynomial degree."""


class NotOptimal(OpmlabError):
    """A diagnostic requiring a near-optimal solution got one that is not."""


class TooCloseToBoundary(OpmlabError):
    """Szego evaluation point too close to the unit circle."""


class NotSzegoClass(OpmlabError):
    """Density has values below the admissibility floor."""


class ConfigError(OpmlabError):
    """Invalid experiment configuration."""
