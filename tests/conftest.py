import pytest
from hypothesis import settings

import mixent.entropy as entropy_mod
import mixent.numerics as numerics_mod

# Same examples on every run and no per-example deadline, so property tests
# give the same verdict on a slow or busy host.
settings.register_profile("mixent", derandomize=True, max_examples=40, deadline=None)
settings.load_profile("mixent")


@pytest.fixture
def integrate_calls(monkeypatch):
    """Records the interval of every quadrature the entropy routes and
    Lemma 1 run."""
    calls = []
    real = entropy_mod.integrate

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(entropy_mod, "integrate", counting)
    return calls


@pytest.fixture
def unreachable_tolerance(monkeypatch):
    """Quadrature tolerances of 1e-30, which no integral meets: every
    quadrature comes back flagged unconverged."""
    monkeypatch.setattr(numerics_mod, "_ABS_TOL", 1e-30)
    monkeypatch.setattr(numerics_mod, "_REL_TOL", 1e-30)
