"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from jcdyn import oracle


@pytest.fixture
def solves(monkeypatch):
    """Every call of ``oracle.solve_ivp`` in the test, as
    (args, kwargs, solution, samples).

    ``kwargs`` lacks the ``sink`` keyword, so the call replays into scipy;
    ``samples`` is the (len(t_eval), y0.size) array of every state the solver
    produced, gathered from the views it wrote through the caller's sink, or
    ``solution.y.T`` without one.
    """
    calls = []
    original = oracle.solve_ivp

    def recording(*args, sink=None, **kwargs):
        views = []

        def gathering(start, stop):
            # The solver has filled the last view, and the sink's owner
            # reuses its buffer only once it hands out the next one.
            if views:
                views[-1] = views[-1].copy()
            views.append(sink(start, stop))
            return views[-1]

        extra = {} if sink is None else {"sink": gathering}
        sol = original(*args, **kwargs, **extra)
        samples = sol.y.T if sink is None else np.concatenate(views)
        calls.append((args, kwargs, sol, samples))
        return sol

    monkeypatch.setattr(oracle, "solve_ivp", recording)
    return calls
