"""Repo hygiene: package layout and environment-knob invariants.

Guards against the stale-``faults``-package failure mode: a directory
under ``src/repro`` that contains (or once contained) Python modules but
no ``__init__.py``.  Such a directory still imports on machines where an
old ``__pycache__`` survives, then breaks everywhere else.
"""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _package_dirs():
    """Every directory under src/repro that holds .py files."""
    dirs = set()
    for py in SRC.rglob("*.py"):
        if "__pycache__" in py.parts:
            continue
        dirs.add(py.parent)
    return sorted(dirs)


def test_every_package_dir_has_init():
    missing = [
        str(d.relative_to(SRC.parent))
        for d in _package_dirs()
        if not (d / "__init__.py").is_file()
    ]
    assert not missing, f"package dirs missing __init__.py: {missing}"


def test_no_pycache_only_package_dirs():
    """A dir whose only Python artifacts live in __pycache__ is a stale
    package: imports succeed locally off cached bytecode and fail on a
    fresh checkout."""
    stale = []
    for d in SRC.rglob("__pycache__"):
        parent = d.parent
        has_sources = any(
            p.suffix == ".py" for p in parent.iterdir() if p.is_file()
        )
        if not has_sources:
            stale.append(str(parent.relative_to(SRC.parent)))
    assert not stale, f"__pycache__-only dirs (stale packages): {stale}"


def test_faults_is_a_real_package():
    pkg = SRC / "faults"
    assert (pkg / "__init__.py").is_file()
    sources = [p.name for p in pkg.glob("*.py")]
    assert "schedule.py" in sources and "injector.py" in sources


def _imported_modules(path: Path):
    """Top-level names of every module ``path`` imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield (node.module or "").split(".")[0]


def test_package_never_imports_tests():
    """Test oracles live in ``tests/``, which the wheel does not ship:
    no module under src/repro may import them."""
    offenders = sorted(
        str(py.relative_to(SRC.parent))
        for py in SRC.rglob("*.py")
        if "tests" in set(_imported_modules(py))
    )
    assert not offenders, f"package modules importing tests: {offenders}"


def test_package_ships_no_measurement_tooling():
    """The results warehouse and the load generator live in ``tools/``,
    beside the system they measure: no module under src/repro is (or
    imports) either, ``import repro`` loads neither, and ``repro``
    exports no run-table."""
    assert not (SRC / "warehouse").exists()
    assert not (SRC / "serve" / "loadgen.py").exists()
    offenders = sorted(
        str(py.relative_to(SRC.parent))
        for py in SRC.rglob("*.py")
        if "tools" in set(_imported_modules(py))
    )
    assert not offenders, f"package modules importing tools: {offenders}"
    probe = (
        "import sys, repro; print(sorted(m for m in sys.modules if "
        "m.startswith('repro.warehouse') or m == 'repro.serve.loadgen'))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    ).stdout.strip()
    assert loaded == "[]", f"import repro loaded tooling: {loaded}"
    import repro

    assert "RunTable" not in repro.__all__


#: Every ``REPRO_*`` environment variable the package reads.  A new one
#: is a new global knob: add it here only together with its docs.
ENV_KNOBS = {
    "REPRO_FABRIC_SEEDS",
    "REPRO_OBS_HIST_MAX",
}


def test_env_knobs_pinned():
    """The package's ``REPRO_*`` variables are exactly the pinned set,
    and each one is documented in README.md or EXPERIMENTS.md."""
    names = set()
    for py in SRC.rglob("*.py"):
        names.update(re.findall(r"\bREPRO_[A-Z0-9_]+", py.read_text()))
    assert names == ENV_KNOBS
    root = SRC.parent.parent
    docs = (root / "README.md").read_text() + (
        root / "EXPERIMENTS.md"
    ).read_text()
    undocumented = sorted(name for name in names if name not in docs)
    assert not undocumented, f"undocumented env knobs: {undocumented}"


def _perfbench_tracing():
    """``perfbench/tracing.py``, loaded by file path (``perfbench`` is a
    script directory, not a package)."""
    path = SRC.parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _perfbench_targets():
    """``TARGETS`` of ``perfbench/tracing.py``."""
    return _perfbench_tracing().TARGETS


def test_perfbench_trace_targets_resolve():
    """Every attribute the benchmark's layer tracer wraps still exists
    on its owner.  A renamed or removed one would not fail the
    benchmark: its layer row would just read 0."""
    missing = []
    for owner_path, attr, layer, _items in _perfbench_targets():
        module, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = vars(owner).get(cls)
        if owner is None or attr not in vars(owner):
            missing.append(f"{owner_path}.{attr} ({layer})")
    assert not missing, f"perfbench trace targets that do not resolve: {missing}"


def test_perfbench_layers_count_the_search():
    """The benchmark's layer tracer, installed around a machine-A 2/4
    optimization, counts one pass-1 item per candidate pass 1 scored
    and one topology build per LP (the optimizer reuses the winner's).
    A scorer or
    topology-build signature change that the tracer no longer sees
    would zero its benchmark row instead of failing."""
    from repro.core.optimizer import MomentOptimizer
    from repro.graphs.datasets import IGB_HOM
    from repro.hardware.machines import machine_a

    dataset = IGB_HOM.build(scale=IGB_HOM.default_scale * 40, seed=0)
    optimizer = MomentOptimizer(machine_a(), 2, 4)
    tracer = _perfbench_tracing().Tracer()
    tracer.install()
    try:
        plan = optimizer.optimize(dataset)
        layers = tracer.snapshot()
    finally:
        tracer.uninstall()
    search = plan.search
    assert search.num_lp_scored > 0
    assert layers["search.pass1"]["items"] == search.num_pass1_scored
    assert layers["search.pass1"]["calls"] == search.num_batches
    assert layers["search.pass2"]["calls"] == search.num_lp_scored
    assert layers["hardware.topology_build"]["calls"] == search.num_lp_scored


#: What ``repro.core.mcmf`` uses of scipy's private HiGHS binding.
_HIGHS_MODULE = "scipy.optimize._highspy._core"
_HIGHS_NAMES = (
    "_Highs",
    "HighsOptions",
    "HighsLp",
    "MatrixFormat.kColwise",
    "HighsStatus.kError",
    "HighsModelStatus.kOptimal",
    "HighsModelStatus.kInfeasible",
    "HighsDebugLevel.kHighsDebugLevelNone",
    "simplex_constants.SimplexStrategy.kSimplexStrategyDual",
    "_Highs.passOptions",
    "_Highs.passModel",
    "_Highs.run",
    "_Highs.getModelStatus",
    "_Highs.modelStatusToString",
    "_Highs.getSolution",
    "_Highs.getObjectiveValue",
)
_HIGHS_LP_FIELDS = (
    "num_col_",
    "num_row_",
    "col_cost_",
    "col_lower_",
    "col_upper_",
    "row_lower_",
    "row_upper_",
    "a_matrix_.num_col_",
    "a_matrix_.num_row_",
    "a_matrix_.format_",
    "a_matrix_.start_",
    "a_matrix_.index_",
    "a_matrix_.value_",
)


def _has_path(root, dotted):
    for part in dotted.split("."):
        if not hasattr(root, part):
            return False
        root = getattr(root, part)
    return True


def test_scipy_highs_private_api():
    """The multicommodity LP drives the HiGHS instance inside scipy
    directly; every private name it relies on must exist in the
    installed scipy."""
    hint = (
        f"{_HIGHS_MODULE} no longer provides what repro.core.mcmf uses; "
        "move the LP back to the public scipy.optimize.linprog path "
        "(tests/oracles.py: reference_multicommodity_min_time)"
    )
    try:
        core = importlib.import_module(_HIGHS_MODULE)
    except ImportError as err:
        raise AssertionError(f"{hint} ({err})") from None
    missing = [name for name in _HIGHS_NAMES if not _has_path(core, name)]
    if not missing:
        from repro.core.mcmf import HIGHS_OPTIONS

        lp, options = core.HighsLp(), core.HighsOptions()
        solution = core._Highs().getSolution()
        missing += [
            f"HighsLp.{name}"
            for name in _HIGHS_LP_FIELDS
            if not _has_path(lp, name)
        ]
        missing += [
            f"HighsOptions.{name}"
            for name in HIGHS_OPTIONS
            if not hasattr(options, name)
        ]
        missing += [
            f"HighsSolution.{name}"
            for name in ("col_value", "row_value")
            if not hasattr(solution, name)
        ]
    assert not missing, f"{hint}; missing: {missing}"
