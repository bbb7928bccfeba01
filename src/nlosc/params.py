"""Physical parameters, dimensionless reduction and the Lambda-dependent domain.

Two coupling conventions coexist in the model: the bare ``g = m*alpha**2``
used by the classical equations and the redefined ``g = m*alpha**2 +
hbar*alpha*lam`` that makes the dimensionless radial problem close.  The
``coupling_g`` cached here is the redefined one; :mod:`nlosc.classical` works
with ``m*alpha**2`` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveParameter, OutsideDomain


@dataclass(frozen=True)
class ModelParams:
    """Validated physical constants of the oscillator."""

    m: float
    alpha: float
    lam: float
    hbar: float = 1.0
    coupling_g: float = 0.0  # m*alpha**2 + hbar*alpha*lam, set by make_model


@dataclass(frozen=True)
class DimensionlessModel:
    """Dimensionless nonlinearity and the length scale that produced it.

    The length-scale constant (r = scale_C * y) is named ``scale_C`` to
    keep it apart from the classical angular-momentum constant C.
    """

    Lambda: float
    scale_C: float


@dataclass(frozen=True)
class Domain:
    """Radial interval (0, upper); ``upper = inf`` marks the open half-line."""

    lower: float
    upper: float

    @property
    def finite(self) -> bool:
        return math.isfinite(self.upper)


def make_model(m: float, alpha: float, lam: float, hbar: float = 1.0) -> ModelParams:
    """Validate constants and cache the redefined coupling g."""
    # "not > 0" rather than "<= 0", so that NaN is rejected too
    if not m > 0:
        raise NonPositiveParameter(f"mass parameter must be positive, got {m}")
    if not alpha > 0:
        raise NonPositiveParameter(f"alpha must be positive, got {alpha}")
    if not hbar > 0:
        raise NonPositiveParameter(f"hbar must be positive, got {hbar}")
    g = m * alpha**2 + hbar * alpha * lam
    return ModelParams(m=float(m), alpha=float(alpha), lam=float(lam), hbar=float(hbar), coupling_g=g)


def dimensionless(params: ModelParams) -> DimensionlessModel:
    """Reduce to (Lambda, scale_C) with r = scale_C*y and lam = Lambda/scale_C**2."""
    c = math.sqrt(params.hbar / (params.m * params.alpha))
    return DimensionlessModel(Lambda=params.lam * c * c, scale_C=c)


def check_finite(**values) -> None:
    """Raise a ValueError naming the first argument that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def domain(Lambda: float) -> Domain:
    """Radial domain: (0, sqrt(1/|Lambda|)) for Lambda < 0, else (0, inf)."""
    if Lambda < 0:
        return Domain(0.0, math.sqrt(1.0 / abs(Lambda)))
    return Domain(0.0, math.inf)


def mass_denominator(lam: float, x, name: str = "r"):
    """w = lam*x**2 + 1, the denominator of M(x); OutsideDomain where w <= 0.

    An array raises the scalar message of its first such point.  ``name``
    labels the coordinate in the error message.
    """
    w = lam * x * x + 1.0
    if isinstance(w, np.ndarray):
        bad = np.flatnonzero(w <= 0)
        if bad.size:
            mass_denominator(lam, x.flat[bad[0]], name)  # raises, as a scalar
    elif w <= 0:
        raise OutsideDomain(f"lam*{name}**2 + 1 = {w} <= 0 at {name} = {x}")
    return w


def mass_at(r: float, params: ModelParams) -> float:
    """Position-dependent mass M(r) = m / (lam*r**2 + 1)."""
    return params.m / mass_denominator(params.lam, r)
