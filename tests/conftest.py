"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from jcdyn import dop853, oracle


@pytest.fixture
def solves(monkeypatch):
    """Every call of ``oracle.solve_ivp`` in the test, as
    (args, kwargs, solution, samples).

    ``kwargs`` replays the call into scipy: the caller's keywords without
    ``sink``, plus DOP853 and the solver's fixed settings. ``samples`` is
    the (len(t_eval), y0.size) array of every state the solver produced,
    gathered from the views it wrote through the caller's sink.
    """
    calls = []
    original = oracle.solve_ivp

    def recording(*args, sink, **kwargs):
        views = []

        def gathering(start, stop):
            # The solver has filled the last view, and the sink's owner
            # reuses its buffer only once it hands out the next one.
            if views:
                views[-1] = views[-1].copy()
            views.append(sink(start, stop))
            return views[-1]

        sol = original(*args, **kwargs, sink=gathering)
        replay = dict(
            kwargs,
            method="DOP853",
            rtol=dop853.RTOL,
            atol=dop853.ATOL,
            max_step=dop853.MAX_STEP,
        )
        calls.append((args, replay, sol, np.concatenate(views)))
        return sol

    monkeypatch.setattr(oracle, "solve_ivp", recording)
    return calls
