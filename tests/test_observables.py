"""Observables: entropy, Bloch vector, revival estimates."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from jcdyn import (
    AtomDensityMatrix,
    AtomState,
    BlochVector,
    ConstantCoupling,
    InvalidInputError,
    LinearCoupling,
    NumericalFailureError,
    SechCoupling,
    SinusoidalCoupling,
    atom_eigenvalues,
    bloch_vector,
    coherence_xi,
    coherent_amplitudes,
    custom_distribution,
    evolve_pure,
    inversion_closed_form,
    population_inversion,
    reduced_atom,
    revival_time,
    von_neumann_entropy,
)

CONST = ConstantCoupling(1.0)
VACUUM = custom_distribution(amplitudes=[1.0])


def test_entropy_endpoints():
    pure = AtomDensityMatrix.from_atom_state(AtomState.excited())
    assert von_neumann_entropy(pure) == 0.0
    mixed = AtomDensityMatrix(0.5, 0.5, 0.0)
    assert von_neumann_entropy(mixed) == 1.0


def test_entropy_symmetric_under_swap():
    a = von_neumann_entropy(AtomDensityMatrix(0.3, 0.7, 0.0))
    b = von_neumann_entropy(AtomDensityMatrix(0.7, 0.3, 0.0))
    assert a == pytest.approx(b, abs=1e-15)
    assert a == pytest.approx(
        -(0.3 * math.log2(0.3) + 0.7 * math.log2(0.7)), rel=1e-14
    )


def test_eigenvalues_and_clamping():
    data = atom_eigenvalues(AtomDensityMatrix(0.75, 0.25, 0.0))
    assert (data.mu_plus, data.mu_minus) == (0.75, 0.25)
    # a pure state lands exactly on the boundary and must clamp cleanly
    data = atom_eigenvalues(AtomDensityMatrix.from_atom_state(AtomState.plus_x()))
    assert data.mu_plus == 1.0 and data.mu_minus == 0.0


def test_eigenvalues_numerical_failure_beyond_clamp():
    fake = SimpleNamespace(rho_ee=0.6, rho_gg=0.4, rho_eg=0.5)
    with pytest.raises(NumericalFailureError):
        atom_eigenvalues(fake)


def test_bloch_components_and_signs():
    plus_x = bloch_vector(AtomDensityMatrix.from_atom_state(AtomState.plus_x()))
    assert (plus_x.r_x, plus_x.r_y, plus_x.r_z, plus_x.r) == (1.0, 0.0, 0.0, 1.0)
    # +1 eigenstate of sigma_y: (|e> + i|g>)/sqrt(2)
    s = 1.0 / math.sqrt(2.0)
    plus_y = bloch_vector(AtomDensityMatrix.from_atom_state(AtomState(s, 1j * s)))
    assert plus_y.r_y == pytest.approx(1.0, abs=1e-15)
    assert plus_y.r_x == pytest.approx(0.0, abs=1e-15)
    excited = bloch_vector(AtomDensityMatrix.from_atom_state(AtomState.excited()))
    assert excited.r_z == 1.0


def test_coherence_conjugation_convention():
    # (|e> + i|g>)/sqrt(2) with the vacuum: only n=0 overlaps.
    # xi = conj(C_e0) C_g0 while the matrix element <e|rho|g> is conj(xi);
    # getting this backwards flips the sign of R_y.
    s = 1.0 / math.sqrt(2.0)
    atom = AtomState(s, 1j * s)
    for t in (0.0, 0.6, 1.4):
        st = evolve_pure(atom, VACUUM, CONST, t)
        xi = coherence_xi(st)
        rho = reduced_atom(st)
        assert rho.rho_eg == pytest.approx(xi.conjugate(), abs=1e-14)
        assert xi == pytest.approx(0.5j * math.cos(t), abs=1e-14)
        assert bloch_vector(rho).r_y == pytest.approx(math.cos(t), abs=1e-14)


def test_coherence_plus_x_vacuum():
    for t in (0.3, 1.0):
        st = evolve_pure(AtomState.plus_x(), VACUUM, CONST, t)
        assert coherence_xi(st) == pytest.approx(0.5 * math.cos(t), abs=1e-14)


def test_revival_time_reference_values():
    coh25 = coherent_amplitudes(5.0)
    assert revival_time(coh25, ConstantCoupling(1.0)) == pytest.approx(
        10.0 * math.pi, rel=1e-15
    )
    assert revival_time(coh25, LinearCoupling(1.0, 0.16)) == pytest.approx(
        19.816636488030055, rel=1e-14
    )
    assert revival_time(coh25, LinearCoupling(1.0, 0.01)) == pytest.approx(
        79.26654595212022, rel=1e-14
    )
    assert revival_time(coh25, SechCoupling(1.0, 0.3)) is None
    assert revival_time(coh25, SinusoidalCoupling(1.0, 1.0)) is None
    with pytest.raises(InvalidInputError):
        revival_time(VACUUM, ConstantCoupling(1.0))


def test_inversion_closed_form_scalar_and_array():
    field = coherent_amplitudes(2.0)
    ts = np.linspace(0.0, 8.0, 17)
    arr = inversion_closed_form(field, CONST, ts)
    assert arr.shape == ts.shape
    for i, t in enumerate(ts):
        # scalar and batched paths reduce in different orders; allow ulps
        assert arr[i] == pytest.approx(
            inversion_closed_form(field, CONST, float(t)), abs=1e-13
        )
    assert inversion_closed_form(field, CONST, 0.0) == pytest.approx(
        math.fsum(field.weights), rel=1e-15
    )


def test_inversion_matches_evolution_for_excited_atom():
    field = coherent_amplitudes(1.2)
    for t in (0.5, 2.7, 9.1):
        st = evolve_pure(AtomState.excited(), field, CONST, t)
        assert inversion_closed_form(field, CONST, t) == pytest.approx(
            population_inversion(reduced_atom(st)), abs=1e-12
        )


def test_bloch_vector_validation():
    with pytest.raises(InvalidInputError):
        BlochVector(1.0, 0.0, 0.0, 0.5)  # modulus inconsistent
    with pytest.raises(InvalidInputError):
        BlochVector(1.0, 1.0, 0.0, math.sqrt(2.0))  # leaves the unit ball
