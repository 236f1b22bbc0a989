"""Hooks and fixtures shared by every test module."""

import warnings

import numpy as np
import pytest


@pytest.hookimpl(wrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Make each test's report with hypothesis' ``TypedDict`` warning ignored.

    While it reports a falsifying example, the hypothesis plugin reaches
    ``mypy_extensions.TypedDict``, which warns that it is deprecated.
    ``pyproject.toml`` ignores that warning, but ``-W error`` on the command
    line overrides its filters, and the warning, raised inside this hook,
    would end the session with an internal error instead of the example.
    Only that warning is ignored, and only here.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                                category=DeprecationWarning)
        return (yield)


@pytest.fixture
def force_load_uniforms(monkeypatch):
    """``force_load_uniforms(values)`` sets the load uniform of each
    (scenario, bus, hour) key of ``values`` to its value in every generator
    made after it; every other draw, the weather's too, is kept."""
    real = np.random.default_rng

    def force(values):
        class Generator:
            def __init__(self, seed):
                self.rng, self.calls = real(seed), 0

            def random(self, shape):
                u = self.rng.random(shape)
                if self.calls == 0:  # u_load is drawn first
                    for cell, value in values.items():
                        u[cell] = value
                self.calls += 1
                return u

        monkeypatch.setattr(np.random, "default_rng", Generator)

    return force
