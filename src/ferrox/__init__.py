"""ferrox: Ferrers functions of complex degree and order via Gauss
hypergeometric series.

Main entry points:

- :func:`ferrox.ferrers.ferrers_q` / :func:`ferrox.ferrers.ferrers_q_rep`:
  the second-kind Ferrers function, automatic or explicit representation.
- :func:`ferrox.ferrers.ferrers_p`, :func:`ferrox.ferrers.legendre_p`,
  :func:`ferrox.ferrers.legendre_q`: the companion functions.
- :func:`ferrox.hyp2f1.f21` / :func:`ferrox.hyp2f1.f21_cut`: the underlying
  hypergeometric machinery, including branch-cut boundary values.
- :func:`ferrox.regions.classify`: where each series representation
  converges in the complex plane.
- :mod:`ferrox.fourier`: the single-sum cosine expansion and its
  convergence trichotomy.
- :mod:`ferrox.olbricht`: the catalogue of 72 classical solutions with
  numeric verification.

The ``ferrox`` command-line tool wraps all of the above; see ``ferrox -h``.
"""

from .complexmath import RootVariant
from .errors import (
    BeyondRangeError,
    BranchCutError,
    ConvergenceError,
    DegenerateParameterError,
    DomainError,
    FerroxError,
    NoRepresentationError,
    ParameterError,
    PoleError,
    SingularPointError,
)
from .ferrers import (
    EvalOutcome,
    ParamPair,
    RepresentationId,
    ferrers_p,
    ferrers_q,
    ferrers_q_rep,
    ferrers_q_via_limit,
    legendre_p,
    legendre_q,
)
from .hyp2f1 import CutSide, HypParams, SeriesResult, f21, f21_cut, f21_regularized
from .regions import DomainId, classify, in_region

__version__ = "0.1.0"

__all__ = [
    "BeyondRangeError",
    "BranchCutError",
    "ConvergenceError",
    "CutSide",
    "DegenerateParameterError",
    "DomainError",
    "DomainId",
    "EvalOutcome",
    "FerroxError",
    "HypParams",
    "NoRepresentationError",
    "ParamPair",
    "ParameterError",
    "PoleError",
    "RepresentationId",
    "RootVariant",
    "SeriesResult",
    "SingularPointError",
    "classify",
    "f21",
    "f21_cut",
    "f21_regularized",
    "ferrers_p",
    "ferrers_q",
    "ferrers_q_rep",
    "ferrers_q_via_limit",
    "in_region",
    "legendre_p",
    "legendre_q",
    "__version__",
]
