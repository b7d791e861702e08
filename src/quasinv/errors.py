"""Exception types shared across the package."""


class QuasinvError(Exception):
    """Base class for every package-specific error."""


class OutOfDomain(QuasinvError):
    """A point lies outside the map's domain."""


class ParseError(QuasinvError):
    """Malformed input (bad JSON, wrong shape, unknown keys)."""


class InvalidMap(QuasinvError):
    """A structurally well-formed map description violating an invariant."""


class DomainTooSmall(QuasinvError):
    """The operation needs a larger domain than the map provides."""


class NotNatDomain(QuasinvError):
    """The operation is only defined for maps on the naturals."""


class InfiniteOrbitError(QuasinvError):
    """A finite invariant superset was requested for a point whose orbit is infinite."""

    def __init__(self, point: int):
        super().__init__(f"orbit of {point} is infinite; no finite invariant superset exists")
        self.point = point


class ProfileInvalid(QuasinvError):
    """A max-condition profile fails the extra interval-variant requirements."""


class StructureViolation(QuasinvError):
    """A (G, v) pair does not decompose into the required structural shape."""


class NotAP2Solution(QuasinvError):
    """The candidate solution fails the removal-inside-the-set property on a sampled input."""


class BoundTooLarge(QuasinvError):
    """An exhaustive enumeration bound exceeds the supported range."""


class ConfigError(QuasinvError):
    """A verification-suite configuration is inconsistent."""


class OrbitTooLong(QuasinvError):
    """Listing an orbit point by point would exceed ``orbits.MAX_LISTED_POINTS``."""

    def __init__(self, start: int, n: int, limit: int):
        super().__init__(f"listing {n} points of the orbit of {start} exceeds the limit of {limit}")
        self.start = start
