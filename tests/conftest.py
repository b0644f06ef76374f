"""Fixtures shared by the test modules."""

import pytest

from causalprox import lp


@pytest.fixture
def simplex_calls(monkeypatch):
    """The list of simplex pivot loops run during the test, one entry per
    run of the loop that every causalprox.lp.solve call goes through.

    The loop is patched on its class, so a caller that imported solve by
    name is counted too.
    """
    calls = []
    real = lp._Tableau.optimize

    def counting(self):
        calls.append("optimize")
        return real(self)

    monkeypatch.setattr(lp._Tableau, "optimize", counting)
    return calls
