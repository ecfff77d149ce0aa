"""In-house DOP853 against scipy's: tableau, trajectories, nfev, failure."""

import json

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients

import jcdyn.cli as cli
from jcdyn import (
    AtomDensityMatrix,
    AtomState,
    ConstantCoupling,
    CustomCoupling,
    LinearCoupling,
    SechCoupling,
    SinusoidalCoupling,
    coherent_amplitudes,
    dop853,
    oracle,
    oracle_evolve_mixed,
    oracle_evolve_pure,
    thermal_weights,
)

TABLE = CustomCoupling(
    times=tuple(40.0 * i / 8 for i in range(9)),
    values=(1.0, 0.93, 1.06, 0.97, 1.09, 0.91, 1.03, 0.95, 1.08),
)


def test_tableau_matches_scipy():
    ref = dop853_coefficients
    assert dop853.N_STAGES == ref.N_STAGES
    for ours, theirs in (
        (dop853.A, ref.A),
        (dop853.B, ref.B),
        (dop853.C, ref.C),
        (dop853.E3, ref.E3),
        (dop853.E5, ref.E5),
        (dop853.D, ref.D),
    ):
        assert ours.shape == theirs.shape
        assert np.array_equal(ours, theirs)


CASES = {
    # jcdyn compare's bench document: thermal field under a 9-point table
    "thermal_table": lambda: oracle_evolve_mixed(
        AtomDensityMatrix.from_atom_state(AtomState.plus_x()),
        thermal_weights(5.0), TABLE, np.linspace(0.0, 40.0, 401),
    ),
    "coherent_sech": lambda: oracle_evolve_pure(
        AtomState(0.8, 0.6j), coherent_amplitudes(2.5), SechCoupling(1.1, 0.3),
        np.linspace(0.0, 12.0, 61),
    ),
    "rank2_sinusoidal_p3": lambda: oracle_evolve_mixed(
        AtomDensityMatrix(0.7, 0.3, 0.2 + 0.1j), thermal_weights(1.5),
        SinusoidalCoupling(1.2, 0.7, p=3), np.linspace(0.0, 8.0, 41),
    ),
    "linear_ramp": lambda: oracle_evolve_pure(
        AtomState.excited(), coherent_amplitudes(3.0), LinearCoupling(1.0, 0.16),
        np.linspace(0.0, 15.0, 76),
    ),
    "two_points": lambda: oracle_evolve_pure(
        AtomState.plus_x(), coherent_amplitudes(1.0), SechCoupling(1.0, 0.3),
        [0.0, 1e-3],
    ),
    # 5,541 photon levels in one solve
    "thermal_200": lambda: oracle_evolve_mixed(
        AtomDensityMatrix.from_atom_state(AtomState.excited()),
        thermal_weights(200.0), SinusoidalCoupling(1.0, 0.5),
        np.linspace(0.0, 2.0, 11),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_oracle_solves_bit_identical_to_scipy(name, solves):
    # Every case hands its samples to a sink; the fixture gathers them and
    # replays the call into scipy without it.
    CASES[name]()
    assert len(solves) == 1
    args, kwargs, ours, samples = solves[0]
    theirs = scipy_solve_ivp(*args, **kwargs)
    assert ours.success and theirs.success
    assert ours.message == theirs.message
    assert ours.nfev == theirs.nfev
    assert samples.T.shape == theirs.y.shape
    assert np.array_equal(samples.T, theirs.y)


def test_step_failure_matches_scipy():
    # y' = y^2 from y(0) = 1 blows up at t = 1: the step shrinks until it is
    # under 10 ulp of t.
    def blowup(t, y):
        return y * y

    t_eval = [0.0, 0.5, 1.5]
    out = np.full((len(t_eval), 1), np.nan)
    handed = []

    def sink(start, stop):
        handed.append((start, stop))
        return out[start:stop]

    ours = oracle.solve_ivp(blowup, (0.0, 2.0), [1.0], t_eval=t_eval, sink=sink)
    theirs = scipy_solve_ivp(
        blowup, (0.0, 2.0), [1.0], method="DOP853", t_eval=t_eval,
        rtol=dop853.RTOL, atol=dop853.ATOL, max_step=dop853.MAX_STEP,
    )
    assert not ours.success and not theirs.success
    assert ours.message == theirs.message == dop853.TOO_SMALL_STEP
    assert ours.nfev == theirs.nfev
    reached = theirs.y.shape[1]
    assert np.array_equal(out[:reached].T, theirs.y)
    # Rows the solver never reached are never handed out.
    assert max(stop for _, stop in handed) <= reached
    assert np.all(np.isnan(out[reached:]))


def test_step_failure_exits_3(tmp_path, monkeypatch, capsys):
    # A coupling that turns NaN halfway drives every step there to rejection
    # until the step is too small; the NaN arithmetic is expected, so numpy
    # is told not to warn about it.
    def rate(self, t):
        return np.where(np.asarray(t) > 1.0, np.nan, 1.0)

    monkeypatch.setattr(ConstantCoupling, "rate", rate)
    doc = {
        "atom": "excited",
        "field": {"coherent": 1},
        "profile": {"constant": {"lambda0": 1}},
        "time": {"t_end": 2.0, "steps": 9},
        "outputs": ["inversion"],
    }
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    with np.errstate(invalid="ignore"):
        assert cli.main(["compare", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == (
        f"numerical failure: reference integrator failed: {dop853.TOO_SMALL_STEP}\n"
    )


def test_rejects_what_it_does_not_implement():
    def rhs(t, y):
        return -y

    out = np.empty((2, 1))

    def sink(start, stop):
        return out[start:stop]

    with pytest.raises(ValueError):
        dop853.solve_ivp(rhs, (1.0, 0.0), [1.0], t_eval=[0.5], sink=sink)
    with pytest.raises(ValueError):
        dop853.solve_ivp(rhs, (0.0, 1.0), [1.0], t_eval=[0.5, 0.2], sink=sink)
    with pytest.raises(ValueError):
        dop853.solve_ivp(rhs, (0.0, 1.0), [1.0], t_eval=[0.5, 1.5], sink=sink)
    with pytest.raises(ValueError):
        dop853.solve_ivp(rhs, (0.0, 1.0), [1.0 + 0.5j], t_eval=[0.5], sink=sink)


@pytest.mark.parametrize("y0", [[1.0, -0.5]], ids=["real"])
@pytest.mark.parametrize(
    "fun", [lambda t, y: y, lambda t, y: y[::-1][::-1]], ids=["argument", "view"]
)
def test_right_hand_side_may_return_its_argument(fun, y0):
    # y' = y by handing back the solver's own stage buffer, or a view of
    # it: the solver copies each stage out before it reuses the buffer.
    t_eval = np.linspace(0.0, 1.5, 7)
    out = np.empty((t_eval.size, len(y0)))
    ours = dop853.solve_ivp(
        fun, (0.0, 1.5), y0, t_eval=t_eval, sink=lambda start, stop: out[start:stop]
    )
    theirs = scipy_solve_ivp(
        fun, (0.0, 1.5), y0, method="DOP853", t_eval=t_eval,
        rtol=dop853.RTOL, atol=dop853.ATOL, max_step=dop853.MAX_STEP,
    )
    assert ours.success and theirs.success
    assert ours.nfev == theirs.nfev
    assert np.array_equal(out.T, theirs.y)
    np.testing.assert_allclose(out, np.outer(np.exp(t_eval), y0), rtol=1e-9)
