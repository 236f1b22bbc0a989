"""Scenario generation: determinism, bounds, and sample construction."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridclear
from gridclear import (ConfigurationError, EmpiricalSample, ScenarioConfig,
                       ScenarioSet, aggregate_net_load, committed_upper_bound,
                       cvar_direct, generate_scenarios, net_load, suffix_net_load)
from gridclear.scenarios import build_scenarios, draw_loads


def make_config(**overrides):
    base = dict(
        n_buses=3, horizon=2, n_scenarios=16, seed=5,
        load_mean=np.full((3, 2), 100.0),
        load_std=np.full((3, 2), 8.0),
        renewable_capacity=np.array([120.0, 90.0, 60.0]),
        penetration=0.4, uncertainty_growth=0.2,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def manual_set(load, renewable, probs=None):
    load = np.asarray(load, dtype=float)
    renewable = np.asarray(renewable, dtype=float)
    if probs is None:
        probs = np.full(load.shape[2], 1.0 / load.shape[2])
    return ScenarioSet(np.asarray(probs, dtype=float), load, renewable)


def test_zero_capacity_gives_zero_renewables():
    cfg = make_config(renewable_capacity=np.zeros(3), penetration=0.0)
    ss = generate_scenarios(cfg)
    assert np.all(ss.renewable == 0.0)
    sample = net_load(ss, 0, 0)
    direct = EmpiricalSample.from_arrays(ss.load[0, 0, :], ss.probabilities)
    assert np.allclose(sample.values, direct.values)


def test_zero_penetration_gives_zero_renewables():
    ss = generate_scenarios(make_config(penetration=0.0))
    assert np.all(ss.renewable == 0.0)


def test_same_seed_bit_identical():
    a = generate_scenarios(make_config())
    b = generate_scenarios(make_config())
    assert np.array_equal(a.load, b.load)
    assert np.array_equal(a.renewable, b.renewable)
    assert np.array_equal(a.probabilities, b.probabilities)


def test_different_seed_differs():
    a = generate_scenarios(make_config())
    b = generate_scenarios(make_config(seed=6))
    assert not np.array_equal(a.load, b.load)


def test_capacity_bound_holds():
    ss = generate_scenarios(make_config(penetration=0.8, uncertainty_growth=0.45))
    cap = make_config().renewable_capacity
    assert np.all(ss.renewable >= 0.0)
    assert np.all(ss.renewable <= cap[:, None, None] + 1e-12)


def test_loads_nonnegative():
    ss = generate_scenarios(make_config(load_std=np.full((3, 2), 80.0)))
    assert np.all(ss.load >= 0.0)


def test_infeasible_penetration_names_hour():
    # the share is system-wide, so the error names the first infeasible hour
    mean = np.array([[10.0, 100.0]] * 3)  # hour 0 target 60 fits, hour 1's 600 does not
    cfg = make_config(load_mean=mean, penetration=2.0)
    with pytest.raises(ConfigurationError, match=r"^hour 1: required system-wide mean share"):
        generate_scenarios(cfg)


def test_positive_penetration_without_capacity_errors():
    cfg = make_config(renewable_capacity=np.zeros(3), penetration=0.3)
    with pytest.raises(ConfigurationError, match=r"^hour 0: penetration 0.3 needs mean "
                                                 r"renewable output 90.000 MW"):
        generate_scenarios(cfg)


def test_mean_share_matches_penetration():
    cfg = make_config(n_scenarios=4000, penetration=0.5, uncertainty_growth=0.15)
    ss = generate_scenarios(cfg)
    for t in range(cfg.horizon):
        target = 0.5 * cfg.load_mean[:, t].sum()
        got = ss.renewable[:, t, :].sum(axis=0).mean()
        assert got == pytest.approx(target, rel=0.03)


# -- the load half and the renewable half ---------------------------------


def test_levels_built_on_one_load_draw_equal_separate_draws():
    # one draw_loads serves every penetration level, bit for bit
    draws = draw_loads(make_config(penetration=0.0))
    for penetration in (0.0, 0.4, 0.8):
        cfg = make_config(penetration=penetration)
        built = build_scenarios(cfg, draws)
        alone = generate_scenarios(cfg)
        assert np.array_equal(built.load, alone.load)
        assert np.array_equal(built.renewable, alone.renewable)
        assert np.shares_memory(built.load, draws.load)


@pytest.mark.parametrize("override", [dict(seed=6), dict(n_scenarios=17),
                                      dict(load_mean=np.full((3, 2), 101.0)),
                                      dict(load_std=np.full((3, 2), 9.0)),
                                      dict(n_buses=2, load_mean=np.full((2, 2), 100.0),
                                           load_std=np.full((2, 2), 8.0),
                                           renewable_capacity=np.full(2, 90.0)),
                                      dict(horizon=3, load_mean=np.full((3, 3), 100.0),
                                           load_std=np.full((3, 3), 8.0))])
def test_build_rejects_draws_made_for_another_config(override):
    draws = draw_loads(make_config())
    with pytest.raises(ConfigurationError, match="^the load draws were made for another"):
        build_scenarios(make_config(**override), draws)


@pytest.mark.parametrize("name", ["probabilities", "load", "renewable"])
def test_scenario_set_arrays_are_read_only(name):
    caller = dict(load=np.full((2, 1, 2), 50.0), renewable=np.full((2, 1, 2), 5.0),
                  probs=np.array([0.5, 0.5]))
    for sset in (generate_scenarios(make_config()), manual_set(**caller)):
        with pytest.raises(ValueError, match="read-only"):
            getattr(sset, name)[0] = 1.0
    # the caller's own arrays stay writable
    assert all(a.flags.writeable for a in caller.values())


def test_load_draws_are_read_only():
    draws = draw_loads(make_config())
    for array in (draws.load, draws.u_weather):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


# -- net load sample construction -------------------------------------------


def test_net_load_single_scenario_point_mass():
    ss = manual_set(load=[[[100.0]]], renewable=[[[30.0]]])
    s = net_load(ss, 0, 0)
    assert s.points == [(70.0, 1.0)]


def test_net_load_two_scenarios():
    ss = manual_set(load=[[[60.0, 80.0]]], renewable=[[[10.0, 10.0]]])
    s = net_load(ss, 0, 0)
    assert s.points == [(50.0, 0.5), (70.0, 0.5)]


def test_net_load_keeps_negative_values():
    ss = manual_set(load=[[[100.0]]], renewable=[[[120.0]]])
    s = net_load(ss, 0, 0)
    assert s.points == [(-20.0, 1.0)]


def test_net_load_index_errors():
    ss = manual_set(load=[[[1.0]]], renewable=[[[0.0]]])
    with pytest.raises(IndexError):
        net_load(ss, 1, 0)
    with pytest.raises(IndexError):
        aggregate_net_load(ss, 2)


def test_aggregate_single_bus_equals_net_load():
    ss = generate_scenarios(make_config(n_buses=1, load_mean=np.full((1, 2), 50.0),
                                        load_std=np.full((1, 2), 5.0),
                                        renewable_capacity=np.array([40.0])))
    a = aggregate_net_load(ss, 1)
    b = net_load(ss, 0, 1)
    assert np.allclose(a.values, b.values)


def test_aggregate_two_buses_one_scenario():
    ss = manual_set(load=[[[70.0]], [[50.0]]], renewable=[[[10.0]], [[10.0]]])
    assert aggregate_net_load(ss, 0).points == [(100.0, 1.0)]


def test_aggregate_three_equiprobable():
    load = np.array([[[50.0, 55.0, 60.0]], [[40.0, 45.0, 50.0]]])
    ss = manual_set(load=load, renewable=np.zeros_like(load))
    s = aggregate_net_load(ss, 0)
    assert s.points == [(90.0, pytest.approx(1 / 3)), (100.0, pytest.approx(1 / 3)),
                        (110.0, pytest.approx(1 / 3))]


def test_aggregate_is_scenario_wise_sum():
    ss = generate_scenarios(make_config(n_scenarios=10))
    for t in range(2):
        agg = aggregate_net_load(ss, t)
        per_k = np.zeros(10)
        for i in range(3):
            per_k += ss.load[i, t, :] - ss.renewable[i, t, :]
        manual = EmpiricalSample.from_arrays(per_k, ss.probabilities)
        assert np.allclose(agg.values, manual.values)
        assert np.allclose(agg.probabilities, manual.probabilities)


def test_suffix_net_load_matches_manual_sum():
    ss = generate_scenarios(make_config(n_scenarios=6))
    tail = suffix_net_load(ss, 1, 0)
    manual = (ss.load[1:, 0, :] - ss.renewable[1:, 0, :]).sum(axis=0)
    assert np.allclose(np.sort(manual), tail.values)


def test_penetration_weakly_decreases_mean_net_load():
    # fixed seed gives common random numbers across penetration levels
    means = []
    for pen in (0.0, 0.2, 0.4, 0.6, 0.8):
        ss = generate_scenarios(make_config(n_scenarios=400, penetration=pen,
                                            uncertainty_growth=0.2))
        net = (ss.load - ss.renewable).sum(axis=0)
        means.append(net.mean())
    assert all(b <= a + 1e-9 for a, b in zip(means, means[1:]))


def test_subadditivity_gap_nonnegative_on_generated_sets():
    rng = np.random.default_rng(17)
    for _ in range(30):
        cfg = make_config(seed=int(rng.integers(1_000_000)),
                          penetration=float(rng.uniform(0.0, 0.8)),
                          uncertainty_growth=float(rng.uniform(0.0, 0.4)))
        ss = generate_scenarios(cfg)
        alpha = float(rng.uniform(0.05, 0.95))
        per_bus = [net_load(ss, i, 0) for i in range(cfg.n_buses)]
        joint = aggregate_net_load(ss, 0)
        _, gap = committed_upper_bound([cvar_direct(s, alpha) for s in per_bus],
                                       cvar_direct(joint, alpha))
        assert gap >= -1e-9


def test_cli_import_leaves_scipy_stats_unloaded():
    # importing scipy.stats was most of a fresh CLI start; the draws need only scipy.special
    src = str(Path(gridclear.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, gridclear.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"
