"""Exact bound states and classical dynamics of a 3D nonlinear oscillator
whose mass depends on position as M(r) = m/(lam*r**2 + 1).

The radial Schrodinger problem has closed-form eigenfunctions (a power of y
times a power of Lambda*y**2+1 times a Jacobi polynomial) and a quadratic
spectrum; for Lambda > 0 only finitely many states are normalizable, for
Lambda < 0 the domain itself is a finite ball.  An independent Galerkin
eigen-solve of the radial equation and the harmonic-oscillator limit verify
both.
"""

from .errors import (
    BracketInvalid,
    DomainExit,
    InvalidDegree,
    LambdaTooSmall,
    MeshNotConverged,
    NloscError,
    NonFiniteValue,
    NonPositiveParameter,
    NotAdmissible,
    OutsideDomain,
    PoleInDenominator,
    QuadratureFailure,
    RadialCollapse,
    StiffnessFailure,
    UnboundedOrbit,
)
from .params import DimensionlessModel, Domain, ModelParams, dimensionless, domain, make_model, mass_at
from .spectrum import (
    QuantumNumbers,
    StateCount,
    bound_state_count,
    energy_dimensional,
    energy_dimless,
    energy_dimless_exact,
    ho_energy,
    is_admissible,
)
from .radial import (
    RadialEigenstate,
    WeightedInnerProductResult,
    build_state,
    effective_potential,
    eval_state,
    eval_state_with_derivatives,
    gram_matrix,
    inner_product,
    normalize,
    weight,
)
from .oracle import ShootingResult, limit_compare, radial_residual, shoot_eigenvalue
from .classical import (
    ClassicalStatePlanar,
    Trajectory,
    analytic_1d,
    hamiltonian_1d,
    hamiltonian_planar,
    integrate_1d,
    integrate_planar,
    measure_period,
    spring_constant,
)

__version__ = "0.1.0"
