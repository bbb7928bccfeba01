"""Closed-form bound-state energies and admissibility of (n, L) at given Lambda.

Energies are dimensionless (e = E/(hbar*alpha)).  For Lambda > 0 only finitely
many states are normalizable; the strict cutoff n < 1/(2*Lambda) - 1/2 - L/2
is applied with a small relative guard so that a Lambda sitting exactly on the
threshold (up to float rounding) is rejected rather than admitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .params import ModelParams

# relative guard against float fuzz at the admissibility boundary;
# equality itself is never admissible (the norm integrand exponent hits -1)
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class QuantumNumbers:
    """Vibrational n and angular momentum L, both nonnegative integers."""

    n: int
    L: int

    def __post_init__(self):
        if self.n < 0 or self.L < 0:
            raise ValueError(f"quantum numbers must be nonnegative, got {self}")


def check_angular_momentum(L: int) -> None:
    """Raise the ValueError of :class:`QuantumNumbers` for a negative L."""
    if L < 0:
        raise ValueError(f"quantum numbers must be nonnegative, got L = {L}")


@dataclass(frozen=True)
class StateCount:
    """Number of bound states; ``count is None`` marks the unbounded case."""

    count: Optional[int]

    @property
    def unbounded(self) -> bool:
        return self.count is None


def energy_dimless(n: int, L: int, Lambda: float) -> float:
    """Dimensionless bound-state energy e_n at angular momentum L, exact for a Fraction Lambda."""
    return (
        -2 * Lambda * n * n
        - 2 * L * Lambda * n
        - 2 * Lambda * n
        - L * Lambda / 2
        + 2 * n
        + L
        + type(Lambda)(3) / 2
    )


def energy_dimless_exact(n: int, L: int, Lambda) -> Fraction:
    """Exact rational e_n; Lambda is converted to Fraction verbatim."""
    return energy_dimless(n, L, Fraction(Lambda))


def ho_energy(n: int, L: int) -> float:
    """Harmonic-oscillator limit: e = 2n + L + 3/2."""
    return 2.0 * n + L + 1.5


def is_admissible(n: int, L: int, Lambda: float) -> bool:
    """True when (n, L) gives a normalizable state at this Lambda.

    Lambda <= 0 never restricts n; for Lambda > 0 the cutoff is
    n < 1/(2*Lambda) - 1/2 - L/2, strict at the boundary.
    """
    if Lambda <= 0:
        return True
    return Lambda * (2 * n + 1 + L) < 1.0 - BOUNDARY_TOL


def bound_state_count(Lambda: float, L: int) -> StateCount:
    """Count admissible n >= 0, or the unbounded marker for Lambda <= 0."""
    check_angular_momentum(L)
    if Lambda <= 0:
        return StateCount(None)
    bound = ((1.0 - BOUNDARY_TOL) / Lambda - 1.0 - L) / 2.0
    if bound <= 0:
        return StateCount(0)
    return StateCount(int(math.ceil(bound)))


def energy_dimensional(e: float, params: ModelParams) -> Tuple[float, float]:
    """Map dimensionless e to (E, shifted energy E - hbar**2*lam/(2m))."""
    E = e * params.hbar * params.alpha
    shifted = E - params.hbar**2 * params.lam / (2.0 * params.m)
    return E, shifted
