"""eqm-lab: a finite-dimensional laboratory for nonlinear density-matrix flows.

The package integrates flows generated by state-dependent Hamiltonian
functions through unitary cocycles, transports operator-valued observables
to the Heisenberg picture along those flows, checks the associated
conservation identities, and mirrors the construction classically with a
Koopman composition operator on phase-space observables.
"""

from .flow import (
    ConvergenceError,
    ConvergenceEstimate,
    GeneratorError,
    IntegratorConfig,
    StateError,
    StepError,
    Trajectory,
    convergence_order,
    evolve,
    overlap_deviation,
    propagate,
    wigner_deviation,
)
from .hamiltonians import (
    HamiltonianFunction,
    fd_differential_residual,
    from_value,
    linear,
    mean_field,
    poisson_bracket,
    polynomial,
    shift_differential,
)
from .hilbert import (
    DensityMatrix,
    HermitianOperator,
    StateVector,
    UnitaryOperator,
    commutator,
    projector,
    spectrum,
    trace_pairing,
    transition_probability,
    unitary_exponential,
)
from .koopman import (
    ClassicalObservable,
    HarmonicOscillator,
    Pendulum,
    Quadrature,
    builtin_observable,
    classical_hamiltonian,
    compose,
    flow_map,
    gaussian_observable,
    inner_product,
    liouville_generator_residual,
    unitarity_residual,
    unitarity_residuals,
)
from .observables import (
    ObservableFunction,
    StateMeasure,
    conservation_residual,
    conservation_residuals,
    constant_observable,
    expectation,
    heisenberg_transform,
    pushforward_state,
    trace_scaled_observable,
)

__version__ = "0.1.0"
