"""Benchmark entry point.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a source checkout and imports ``droopsched`` from
its ``src`` directory; without one it exits with code 2.  BLAS and
OpenMP are pinned to one thread before numpy loads.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics untraced, the
per-layer metrics with ``--trace 1``).  The lines before it are a
readable report with sample counts and run metadata; the same report,
and with ``--trace 1`` the raw spans, are written under ``.perfbench_out``.

``--workload all`` runs every workload in its own process and prints
every metric of each, by name and unit.  ``--scaling`` writes the
traced per-layer scaling report across feeder sizes instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("period-37", "day-6bus", "replay-5000", "track-37")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def git_commit(root: Path) -> str | None:
    """Commit of a checkout read from its .git directory, if it has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(seed: int) -> dict:
    import importlib.metadata

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "seed": seed,
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def print_report(detail: dict) -> None:
    print(f"# {detail['workload']}  (one step = one {detail['step']})")
    for name, m in detail["metrics"].items():
        print(f"{name:<18} {m['value']:>14.6g} {m['unit']:<8} n={m['samples']}")
    print(f"digest {detail['digest']}  passes={detail['passes']}")
    for msg in detail["failures"]:
        print(f"FAILED {msg}")


def run_one(args) -> int:
    from perfbench import bench

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = dict(result.detail, metadata=metadata(args.seed))
    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump(dict(detail, result=line), fh, indent=1)
    if result.tracer is not None:
        result.tracer.save(f"{stem}-spans.npz")
    print_report(detail)
    print(json.dumps(detail["metadata"]))
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"= {name}: correct={last['correct']} attempted={last['attempted']} failed={last['failed']}")
        for metric, m in last["metrics"].items():
            print(f"= {name} {metric} {m['value']:.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scaling", action="store_true", help="write the scaling report")
    args = parser.parse_args(argv)
    if args.workload is None and not args.scaling:
        parser.error("--workload or --scaling is required")

    pin_threads()
    if not (SRC / "droopsched" / "__init__.py").is_file():
        print(f"error: no droopsched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import droopsched

    if Path(droopsched.__file__).resolve().parent != SRC / "droopsched":
        print(f"error: droopsched imported from {droopsched.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.scaling:
        from perfbench import scaling

        return scaling.main(OUT)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
