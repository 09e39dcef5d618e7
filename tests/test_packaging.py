"""Packaging metadata and hygiene: exported names and declared entry points
resolve, every public definition is exported, every module parses as the
oldest Python the package declares, the package imports only what it
declares, and it holds no unused import or unread private name."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import droopsched

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(droopsched.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(droopsched.__path__))


# The public surface, module by module.  A change that adds or removes a
# public name edits this table.
EXPORTS = {
    "droop": ["DroopGains", "CapabilitySet", "DerUnit", "CapabilityError", "droop_input",
              "project_capability", "step_der"],
    "linmodel": ["SchedulingPoint", "SensitivityModel", "build_rx", "build_pcc_sensitivity",
                 "build_sensitivity_model"],
    "network": ["Branch", "NetworkModel", "PowerFlowSolution", "NetworkDataError", "PowerFlowError",
                "solve_power_flow"],
    "scenarios": ["load_network", "load_der_units", "six_bus_feeder", "six_bus_pv_units",
                  "random_radial_feeder", "ieee37_shaped_feeder", "clear_sky_availability",
                  "daily_load_shape", "square_wave_frequency"],
    "scheduler": ["SchedulerConfig", "SchedulerState", "draw_samples", "freq_error", "primal_dual_step",
                  "schedule_step"],
    "stability": ["StabilityParams", "compute_gamma", "check_gains", "project_gains"],
}


def test_public_surface_matches_the_snapshot():
    exported = {name: getattr(importlib.import_module(f"droopsched.{name}"), "__all__", None) for name in MODULES}
    assert exported == EXPORTS
    assert sum(map(len, EXPORTS.values())) == 37


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"droopsched.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"droopsched.{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_every_public_definition_is_exported(name):
    module = importlib.import_module(f"droopsched.{name}")
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    public = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    missing = [defined for defined in public if defined not in getattr(module, "__all__", ())]
    assert not missing, f"droopsched.{name} defines public names missing from __all__: {missing}"


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse((PACKAGE / path).read_text(), feature_version=(3, 10))


def test_console_scripts_resolve_to_callables():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for script, target in scripts.items():
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{script} = {target!r} is not a callable"


def test_imports_are_stdlib_numpy_or_the_package():
    """The package needs only what pyproject.toml declares: ``numpy``, and the standard library."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "droopsched"}
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.partition(".")[0]]
            else:
                continue  # a relative import stays inside the package
            problems += [f"{path.name}:{node.lineno}: {root}" for root in roots if root not in allowed]
    assert not problems, "imports outside the declared dependencies:\n" + "\n".join(problems)


def _reads(tree):
    """Every name a module reads, bare or as an attribute."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return names | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def _defines(node):
    """Names a module-level statement defines, other than by import."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_no_unused_imports_or_private_names():
    """Every import is read, exported in ``__all__`` or marked ``# noqa: F401``
    with a reason; every module-level private name is read in the package."""
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    trees = {name: ast.parse(text) for name, text in sources.items()}
    package_reads = set().union(*map(_reads, trees.values()))
    problems = []
    for name, tree in trees.items():
        lines = sources[name].splitlines()
        used = _reads(tree)
        for node in tree.body:
            if "__all__" in _defines(node):
                used |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                reason = lines[node.lineno - 1].partition("# noqa: F401")[2].strip()
                for alias in node.names:
                    bound = (alias.asname or alias.name).partition(".")[0]
                    if bound not in used and not reason:
                        problems.append(f"{name}:{node.lineno}: unused import {bound!r}")
            for defined in _defines(node):
                if defined.startswith("_") and not defined.endswith("__") and defined not in package_reads:
                    problems.append(f"{name}:{node.lineno}: {defined!r} is never read")
    assert not problems, "\n".join(problems)



def _bench_and_package_sources():
    """The package's modules and the benchmark's, less its tests."""
    return sorted(PACKAGE.glob("*.py")) + [p for p in sorted(PERFBENCH.glob("*.py")) if not p.name.startswith("test_")]


# Exported names that no code under the package or the benchmark reads, with
# the reason.  A name only the tests read belongs in tests/oracles.py.
UNREAD_EXPORTS = {
    "load_network": "the package's input reader for a feeder table",
    "load_der_units": "the package's input reader for a DER table",
    "project_gains": "perfbench/spans.py traces it by name, as a string",
    "draw_samples": "perfbench/spans.py traces it by name, as a string; the tests' "
    "sample-average check of the CVaR rows draws from it",
}


def test_every_export_is_read_outside_the_tests():
    """A public name is read by the package or the benchmark, not by the tests alone."""
    reads = set().union(*(_reads(ast.parse(path.read_text())) for path in _bench_and_package_sources()))
    exported = [name for m in MODULES for name in getattr(importlib.import_module(f"droopsched.{m}"), "__all__", ())]
    assert {name for name in exported if name not in reads} == set(UNREAD_EXPORTS)


# Record fields that no code under the package or the benchmark reads, with the reason.
UNREAD_FIELDS = {
    ("SchedulingPoint", "timestamp"): "perfbench passes it by keyword; nothing has read it "
    "since the staleness check became sm.rho is rho",
    ("PowerFlowSolution", "residual"): "kept for the per-period record of each power flow's "
    "iterations and final residual",
}


def _is_record(node) -> bool:
    """A ``dataclass``-decorated class or a ``NamedTuple`` subclass."""
    decorated = any(_is_frozen_dataclass(d) is not None for d in node.decorator_list)
    return decorated or any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases)


def test_every_record_field_is_read_outside_the_tests():
    """A field is read as an attribute by the package or the benchmark, not only stored."""
    reads = {
        node.attr
        for path in _bench_and_package_sources()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and _is_record(node):
                unread |= {
                    (node.name, stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                    and stmt.target.id not in reads
                }
    assert unread == set(UNREAD_FIELDS)


# Records left mutable, with the reason.  A cost is per construction, mutable ->
# frozen, the best of 5 x 200k on one core of a 2-vCPU Xeon under Python 3.11.
MUTABLE_RECORDS = {
    "DerUnit": "0.5 -> 1.7 us; step_der builds one per unit per sub-step, 1000 per "
    "simulated second of the 100-unit 5000-bus replay: about a quarter of its speed",
    "DroopGains": "0.6 -> 1.2 us; one per unit per broadcast, 36 per period of the "
    "37-bus tracking run: about 6% of that period",
    "PowerFlowSolution": "1.2 -> 2.3 us; one per power flow, 145 per period of the "
    "37-bus linearisation",
}

def _is_frozen_dataclass(decorator) -> bool | None:
    """True/False for a ``dataclass`` decorator (frozen or not), None for any other."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    if not (isinstance(target, ast.Name) and target.id == "dataclass"):
        return None
    keywords = call.keywords if call else []
    return any(k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True for k in keywords)


def test_dataclasses_are_frozen_except_the_allowlist():
    """A validated record can be rebound only where freezing it was measured too costly."""
    mutable = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                flags = [f for f in map(_is_frozen_dataclass, node.decorator_list) if f is not None]
                if flags and not flags[0]:
                    mutable.add(node.name)
    assert mutable == set(MUTABLE_RECORDS)


SWEEP_FUNCTIONS = ("solve_power_flow", "_residuals")
WRAPPED_REDUCTIONS = {"max", "min", "sum", "all", "any", "mean", "cumsum", "cumprod"}


def test_the_sweep_calls_no_wrapped_array_reduction():
    """The sweep reduces and accumulates with ufuncs or a[a.argmax()]: ndarray.max, .cumsum and kin pay 1-2 us of wrapper per call."""
    tree = ast.parse((PACKAGE / "network.py").read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in SWEEP_FUNCTIONS:
            found[node.name] = sorted(
                f"line {call.lineno}: .{call.func.attr}()"
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in WRAPPED_REDUCTIONS
            )
    assert found == {name: [] for name in SWEEP_FUNCTIONS}
