"""Error hierarchy shared by all modules.

Every error carries a stable machine-readable ``code`` used by the CLI to
build error JSON and pick exit codes.  Validation failures exit 1, numerical
failures exit 2.
"""

from __future__ import annotations

import math
from fractions import Fraction


class AdiabatError(Exception):
    """Base class; ``code`` is a stable machine-readable identifier."""

    code = "error"
    exit_code = 1

    def __init__(self, message: str, **detail):
        super().__init__(message)
        self.detail = detail

    def to_json(self) -> dict:
        """Plain JSON-ready form; non-finite floats become strings."""
        return {
            "error": self.code,
            "message": str(self),
            "detail": {k: _plain(v) for k, v in self.detail.items()},
        }


def _plain(v):
    try:
        import numpy as np

        if isinstance(v, (np.generic, np.ndarray)):
            return _plain(v.tolist())
    except ImportError:  # pragma: no cover
        pass
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    return v


# -- validation errors (exit 1) ------------------------------------------

class NonIsolatedFixedSet(AdiabatError):
    code = "non_isolated_fixed_set"


class NotSymplectic(AdiabatError):
    code = "not_symplectic"


class InfiniteFamily(AdiabatError):
    code = "infinite_family"


class DegreeTooSmall(AdiabatError):
    code = "degree_too_small"


class EndpointMismatch(AdiabatError):
    code = "endpoint_mismatch"


class DiagonalCollision(AdiabatError):
    code = "diagonal_collision"


class TargetsExceedRank(AdiabatError):
    code = "targets_exceed_rank"


class UnrealizableClass(AdiabatError):
    code = "unrealizable_class"


class NoHolomorphicSection(AdiabatError):
    code = "no_holomorphic_section"


class HolonomyMismatch(AdiabatError):
    code = "holonomy_mismatch"


class PeriodicityMismatch(AdiabatError):
    code = "periodicity_mismatch"


# -- numerical errors (exit 2) -------------------------------------------

class NumericalError(AdiabatError):
    exit_code = 2


class NonConvergence(NumericalError):
    code = "non_convergence"


class SingularOperator(NumericalError):
    code = "singular_operator"


class TrackingLoss(NumericalError):
    code = "tracking_loss"


class AmbiguousMatch(NumericalError):
    code = "ambiguous_match"


class LinearSolveFailure(NumericalError):
    code = "linear_solve_failure"


class Divergence(NumericalError):
    code = "divergence"
