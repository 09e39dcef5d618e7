"""Tests of the benchmark harness itself: every workload at a tiny size,
the independent residual checker, failure counting, determinism and
span parenting of wrapped nested calls."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from droopsched import droop, linmodel, network, scenarios

from perfbench import bench, spans
from perfbench.checks import Checker
from perfbench.reference import SpeedReference
from perfbench.run import WORKLOAD_NAMES

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _originals():
    return [getattr(mod, attr) for mod, attr in spans.TRACED]


def test_workloads_match_benchmark_file():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOAD_NAMES)
    assert sorted(WORKLOAD_NAMES) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_workload_emits_every_metric(name, trace):
    before = _originals()
    r = bench.run(name, seed=3, seconds=0.05, trace=trace, tiny=True)
    assert _originals() == before  # every patch is undone
    assert r.correct, r.detail["failures"]
    assert r.attempted > 0 and r.failed == 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(r.metrics) == [m["name"] for m in listed]
    for m in listed:
        got = r.metrics[m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0.0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_self_times_account_for_wall(name):
    r = bench.run(name, seed=3, seconds=0.05, trace=True, tiny=True)
    m = {k: v["value"] for k, v in r.metrics.items()}
    layers = [v for k, v in m.items() if k.endswith(".self_ms") and k != "driver.self_ms"]
    assert min(layers) >= 0.0  # no span is shorter than its children
    # the wrapped layers cover most of each step: the closed loop's own
    # remainder is neither negative (spans counted twice) nor most of it
    assert 0.0 <= m["driver.self_ms"] < 0.5 * m["trace.wall_ms"]
    if name == "day-6bus":
        assert m["network.solve_power_flow.calls"] > 1.0  # per-second flows plus the periods' H


def test_digest_is_a_function_of_the_seed():
    def digest(seed):
        return bench.run("day-6bus", seed, 0.01, False, tiny=True).detail["digest"]

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def _six_bus_solution(tol):
    model = scenarios.six_bus_feeder()
    p = np.array([-0.05, -0.04, 0.0, 0.3, 0.2, -0.03])
    q = 0.4 * np.minimum(p, 0.0)
    return model, p, q, network.solve_power_flow(model, p, q, tol=tol)


def test_residual_checker_accepts_converged_and_rejects_perturbed():
    model, p, q, sol = _six_bus_solution(1e-10)
    checker = Checker()
    assert checker.power_flow((model, p, q), {"tol": 1e-10}, sol)
    flows = sol.p_flow.copy()
    flows[2] += 1e-7
    assert not checker.power_flow((model, p, q), {"tol": 1e-10}, replace(sol, p_flow=flows))
    voltages = sol.v.copy()
    voltages[4] *= 1.0 + 1e-7
    assert not checker.power_flow((model, p, q), {"tol": 1e-10}, replace(sol, v=voltages))
    assert (checker.attempted, checker.failed) == (3, 2)


def test_failing_step_is_counted():
    class Failing(bench.WORKLOADS["track-37"]):
        def step(self, k):
            raise network.PowerFlowError("boom")

    wl = Failing(3, tiny=True)
    checker = Checker()
    bench.drive(wl, 0.0, checker, [], SpeedReference(False))
    assert checker.failed == wl.pass_steps
    assert "PowerFlowError" in checker.messages[0]


def test_nested_calls_become_child_spans():
    model, p, q, sol = _six_bus_solution(1e-8)
    rho = linmodel.SchedulingPoint(v_meas=sol.v[1:], r_t=1.0, omega=1.0, omega_star=1.0)
    unit = scenarios.six_bus_pv_units()[0]
    unit = replace(unit, cap=replace(unit.cap, p_avail=0.3))
    tracer = spans.Tracer()
    with tracer.install():
        tracer.active = True
        linmodel.build_pcc_sensitivity(model, rho, p, q)
        droop.step_der(unit, 1.0, 0.0, 0.1)
        tracer.active = False
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name"]]
    pcc = names.index("linmodel.build_pcc_sensitivity")
    der = names.index("droop.step_der")
    assert a["parent"][pcc] == -1 and a["parent"][der] == -1
    pf_parents = a["parent"][[i for i, nm in enumerate(names) if nm == "network.solve_power_flow"]]
    assert len(pf_parents) == 4 * model.n + 1 and np.all(pf_parents == pcc)
    cap_parents = a["parent"][[i for i, nm in enumerate(names) if nm == "droop.project_capability"]]
    assert list(cap_parents) == [der]
    s = tracer.summary()
    assert s.children_per_call("linmodel.build_pcc_sensitivity", "network.solve_power_flow") == 4 * model.n + 1
    assert 0.0 <= s.self_total("linmodel.build_pcc_sensitivity") < s.dur[pcc]
    assert tracer.observed["droop.project_capability"].tolist() == [1.0]  # 0.5 clipped to p_avail 0.3
