"""Traced per-layer scaling report across feeder size n and DER count m.

Each (n, m) pair runs in its own spawned process on a random radial
feeder: three traced closed-loop seconds (power flow + DER dynamics)
and one traced scheduling period.  A period whose predicted cost
exceeds the per-size wall cap is skipped, with the prediction as the
reason.  Not gated; written to ``scaling.json`` in the output directory.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import queue
from time import perf_counter

import numpy as np

SIZES = (6, 36, 200, 1000, 5000)
DER_COUNTS = (3, 20, 50, 100)
SECONDS = 3
SEED = 1
CAP_S = 30.0  # wall cap per size; a period predicted to take longer is skipped


def _layer_ms(tracer, steps: int) -> dict:
    s = tracer.summary()
    out = {name: s.self_total(name) * 1e3 / steps for name in tracer.names}
    return {k: v for k, v in out.items() if v > 0.0}


def _period_estimate_s(n: int, pf_s: float) -> float:
    """Finite-difference H (4n+1 power flows) plus dense eigensolves of n and 2n."""
    a = np.random.default_rng(0).random((200, 200))
    a = a + a.T
    t0 = perf_counter()
    np.linalg.eigvalsh(a)
    eig_200 = perf_counter() - t0
    return (4 * n + 1) * pf_s + eig_200 * (2 * (n / 200) ** 3 + (2 * n / 200) ** 3)


def measure_size(n: int, m: int) -> dict:
    from droopsched import scenarios

    from .closedloop import ClosedLoop, make_profiles, pv_units
    from .spans import Tracer

    rng = np.random.default_rng(SEED)
    t0 = perf_counter()
    model = scenarios.random_radial_feeder(n, np.random.default_rng(n))
    model.plan()
    plan_ms = (perf_counter() - t0) * 1e3
    nodes = np.sort(rng.choice(np.arange(1, n + 1), size=m, replace=False))
    prof = make_profiles(rng, n, m, SECONDS + 2, load_base=0.3 / n, pv_peak=0.4 / m,
                         freq_amp=0.001, half_period_s=300.0)
    loop = ClosedLoop(model, pv_units(nodes, s_max=0.5 / m), prof, SEED)
    loop.apply_profiles(0)
    loop.solve(0)
    row = {"n": n, "m": m, "plan_ms": plan_ms}

    tracer = Tracer()
    with tracer.install():
        tracer.active = True
        t0 = perf_counter()
        for t in range(1, SECONDS + 1):
            loop.second(t, schedule=False)
        wall = perf_counter() - t0
        tracer.active = False
    pf_s = tracer.summary().median("network.solve_power_flow")
    row["second"] = {"wall_ms": wall * 1e3 / SECONDS, "self_ms": _layer_ms(tracer, SECONDS)}

    estimate = _period_estimate_s(n, pf_s)
    if estimate > CAP_S:
        row["period"] = {
            "skipped": f"predicted {estimate:.0f} s > cap {CAP_S:.0f} s: "
            f"finite-difference H needs {4 * n + 1} power flows at {pf_s * 1e3:.1f} ms, "
            f"plus dense eigensolves of size {n} and {2 * n}"
        }
        return row
    tracer = Tracer()
    t = SECONDS + 1
    loop.apply_profiles(t)
    p, q = loop.solve(t)
    with tracer.install():
        tracer.active = True
        t0 = perf_counter()
        loop.period(t, p, q)
        wall = perf_counter() - t0
        tracer.active = False
    row["period"] = {"wall_ms": wall * 1e3, "self_ms": _layer_ms(tracer, 1)}
    return row


def _worker(out: mp.Queue, n: int, m: int) -> None:
    try:
        out.put(measure_size(n, m))
    except Exception as exc:  # reported as this size's result
        out.put({"n": n, "m": m, "error": repr(exc)})


def _run_isolated(n: int, m: int) -> dict:
    ctx = mp.get_context("spawn")
    out = ctx.Queue()
    proc = ctx.Process(target=_worker, args=(out, n, m))
    proc.start()
    try:
        return out.get(timeout=3 * CAP_S + 60)
    except queue.Empty:
        return {"n": n, "m": m, "error": f"no result within {3 * CAP_S + 60:.0f} s"}
    finally:
        proc.join(timeout=10)
        if proc.is_alive():
            proc.terminate()
            proc.join()


def _fmt(part: dict) -> str:
    if "skipped" in part:
        return f"skipped ({part['skipped']})"
    top = sorted(part["self_ms"].items(), key=lambda kv: -kv[1])[:4]
    layers = ", ".join(f"{k} {v:.3g}" for k, v in top)
    return f"{part['wall_ms']:.4g} ms [{layers}]"


def main(out_dir) -> int:
    rows = []
    for n in SIZES:
        for m in DER_COUNTS:
            if m > n:
                continue
            row = _run_isolated(n, m)
            rows.append(row)
            if "error" in row:
                print(f"n={n:<5} m={m:<4} error {row['error']}")
                continue
            print(f"n={n:<5} m={m:<4} plan {row['plan_ms']:.4g} ms")
            print(f"    second {_fmt(row['second'])}")
            print(f"    period {_fmt(row['period'])}")
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / "scaling.json", "w") as fh:
        json.dump({"cap_s": CAP_S, "seconds_per_size": SECONDS, "rows": rows}, fh, indent=1)
    return 1 if any("error" in r for r in rows) else 0
