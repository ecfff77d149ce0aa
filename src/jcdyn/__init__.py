"""Exact dynamics of a resonant two-level atom in a single-mode cavity
whose coupling strength is modulated in time.

On resonance the joint evolution is block-diagonal over photon sectors and
depends on the modulation only through its accumulated area, so population
inversion, the atom's von Neumann entropy (the atom-field entanglement of a
pure joint state) and Bloch trajectories all have closed forms. An
independent ODE integrator is bundled for validation.
"""

from .coupling import (
    ConstantCoupling,
    CustomCoupling,
    LinearCoupling,
    SechCoupling,
    SinusoidalCoupling,
    coupling_area,
    coupling_area_numeric,
    lambda_at,
)
from .dynamics import (
    AtomDensityMatrix,
    AtomState,
    JointPureState,
    evolve_mixed,
    evolve_pure,
    excitation_expectation,
)
from .errors import (
    InvalidInputError,
    NumericalFailureError,
    OutOfRangeError,
    ScenarioError,
)
from .fields import (
    PhotonDistribution,
    coherent_amplitudes,
    custom_distribution,
    thermal_weights,
)
from .observables import (
    BlochVector,
    SchmidtData,
    atom_eigenvalues,
    bloch_vector,
    coherence_xi,
    inversion_closed_form,
    population_inversion,
    reduced_atom,
    revival_time,
    von_neumann_entropy,
)
from .oracle import integrate_block, oracle_evolve_mixed, oracle_evolve_pure
from .scenario import (
    AtomSpec,
    FieldSpec,
    ResultTable,
    Scenario,
    SweepSpec,
    parse_scenario,
    run,
    serialize,
)

__version__ = "0.1.0"

__all__ = [
    "AtomDensityMatrix",
    "AtomSpec",
    "AtomState",
    "BlochVector",
    "ConstantCoupling",
    "CustomCoupling",
    "FieldSpec",
    "InvalidInputError",
    "JointPureState",
    "LinearCoupling",
    "NumericalFailureError",
    "OutOfRangeError",
    "PhotonDistribution",
    "ResultTable",
    "Scenario",
    "ScenarioError",
    "SchmidtData",
    "SechCoupling",
    "SinusoidalCoupling",
    "SweepSpec",
    "atom_eigenvalues",
    "bloch_vector",
    "coherence_xi",
    "coherent_amplitudes",
    "coupling_area",
    "coupling_area_numeric",
    "custom_distribution",
    "evolve_mixed",
    "evolve_pure",
    "excitation_expectation",
    "integrate_block",
    "inversion_closed_form",
    "lambda_at",
    "oracle_evolve_mixed",
    "oracle_evolve_pure",
    "parse_scenario",
    "population_inversion",
    "reduced_atom",
    "revival_time",
    "run",
    "serialize",
    "thermal_weights",
    "von_neumann_entropy",
]
