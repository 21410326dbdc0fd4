"""Semantic exception hierarchy for threshlab.

Every failure mode that a caller may want to branch on gets its own class.
All inherit from ThreshlabError so `except ThreshlabError` catches anything
raised deliberately by this package.
"""

from __future__ import annotations


class ThreshlabError(Exception):
    """Base class for all threshlab errors."""


# --- density-pair construction and validation ------------------------------

class NoCrossing(ThreshlabError):
    """f+ - f- has no sign change on (0, 1)."""


class MultipleCrossings(ThreshlabError):
    """f+ - f- has more than one sign-change bracket on (0, 1)."""


class NotTransversal(ThreshlabError):
    """The crossing exists but (f+ - f-)'(a) <= 0."""


class InvalidModel(ThreshlabError):
    """A finite model or density pair fails its structural invariants."""


# --- quadrature -------------------------------------------------------------

class QuadratureNotConverged(ThreshlabError):
    """Adaptive refinement hit its depth limit before reaching the tolerance."""


class InfiniteEntropy(ThreshlabError):
    """KL integrand diverges: q vanishes where p has mass."""


# --- perturbation -----------------------------------------------------------

class EpsTooLarge(ThreshlabError):
    """Requested bump amplitude would break positivity or escape (0, 1)."""


class NegativeDensity(ThreshlabError):
    """A perturbed sub-density goes negative on the check grid."""


class SupportEscapes(ThreshlabError):
    """Bump support is not contained in (0, 1)."""


class NotMonotoneLocal(ThreshlabError):
    """m' is not strictly positive on the neighborhood of the threshold."""


# --- sampling and estimation -------------------------------------------------

class EnvelopeViolated(ThreshlabError):
    """Rejection-sampling envelope was exceeded; the sup certificate is broken."""


class SampleTooSmall(ThreshlabError):
    """Operation needs more data points than the sample provides."""


# --- lower-bound checkers -----------------------------------------------------

class PremiseFails(ThreshlabError):
    """An inequality's premise does not hold; carries which half failed."""

    def __init__(self, which: str, detail: str = ""):
        super().__init__(which, detail)  # the args that pickling passes back
        self.which = which

    def __str__(self):
        which, detail = self.args
        return f"premise failed: {which}" + (f" ({detail})" if detail else "")


class TooLarge(ThreshlabError):
    """Exhaustive enumeration would exceed the configured size cap."""
