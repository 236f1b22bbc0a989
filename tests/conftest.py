"""Hooks and fixtures shared by every test module."""

import warnings

import numpy as np
import pytest

from gridclear import scenarios


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


class ForcedLoadUniforms:
    """A generator whose first ``random`` call, the load uniforms, has the
    (scenario, bus, hour) cells of ``values`` set; every other draw is kept."""

    def __init__(self, rng, values):
        self.rng, self.values, self.calls = rng, values, 0

    def random(self, shape):
        u = self.rng.random(shape)
        if self.calls == 0:  # u_load is drawn first
            for cell, value in self.values.items():
                u[cell] = value
        self.calls += 1
        return u


@pytest.fixture
def force_load_uniforms(monkeypatch):
    """``force_load_uniforms(values)`` sets the load uniform of each
    (scenario, bus, hour) key of ``values`` to its value in every generator
    ``scenarios._generator`` makes after it, and in every
    ``np.random.default_rng`` a reference draw makes; every other draw, the
    weather's too, is kept.  The test fails if ``scenarios._generator`` is
    not called after ``force_load_uniforms``."""
    real, real_default = scenarios._generator, np.random.default_rng
    waiting = False

    def force(values):
        nonlocal waiting

        def forced(seed):
            nonlocal waiting
            waiting = False
            return ForcedLoadUniforms(real(seed), values)

        monkeypatch.setattr(scenarios, "_generator", forced)
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: ForcedLoadUniforms(real_default(seed), values))
        waiting = True

    yield force
    if waiting:
        pytest.fail("force_load_uniforms was called, but scenarios._generator never was")
