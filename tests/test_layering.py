"""The package's import layering, enforced.

* Module-level ``repro`` imports follow one table (an AST walk over every
  module under ``src/repro``; imports inside functions are deferred and
  do not count):

  - ``utils`` < ``sparse`` < ``core`` < ``parallel``, then ``mpi`` <
    ``distributed`` < ``serving`` < ``bench``: a layer imports its own
    layer and the layers below it;
  - ``obs`` (telemetry) and ``_lazy`` (the lazy-export helper) are
    importable by all;
  - ``datasets`` (above ``sparse``) only from ``bench``, ``serving`` and
    the command-line ``__main__`` modules (and tests);
  - the few edges that break the table are listed in ``EXCEPTIONS``,
    each with its reason.

* What a workload loads, checked in a fresh interpreter: a batched
  training chain loads no scipy, no asyncio and nothing above ``core``;
  a 2-rank socket chain, imported the way the socket benchmark imports
  it, loads no module of the performance model (``repro.parallel``,
  ``repro.distributed.scaling``); an in-process
  :class:`PredictionService` fold-in, ``add_ratings`` and ``top_n`` load
  no scipy, no training engine and no sparse module beyond the
  compressed axes.

* Every module imports on its own, in a fresh ``repro`` namespace: a
  cycle that an eager package ``__init__`` used to hide fails here.

* The lazy package exports resolve every name of ``__all__``.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

import repro

PACKAGE_DIR = Path(repro.__file__).parent
SRC_DIR = PACKAGE_DIR.parent

#: A layer imports its own layer and the layers of lower rank.
RANKS = {
    "utils": 0,
    "sparse": 1,
    "datasets": 1,
    "core": 2,
    "baselines": 3,
    "parallel": 3,
    "mpi": 5,
    "distributed": 6,
    "serving": 7,
    "bench": 8,
    "repro": 9,  # the top-level package
}

#: Importable from every layer.
SHARED = ("obs", "_lazy")

#: The layers (besides the ``__main__`` CLIs) that may import ``datasets``.
DATASET_USERS = ("datasets", "bench", "serving")

#: (importer, imported) -> why this edge may break the table.
EXCEPTIONS = {
    ("repro.mpi.net.world", "repro.serving.net.protocol"):
        "the socket world speaks the serving frame codec; it moves to a "
        "neutral repro.wire with perfbench's imports of it",
    ("repro.mpi.net.world", "repro.serving.chaos.plan"):
        "the socket world takes the serving fault injector; moves with "
        "the codec to repro.wire",
    ("repro.mpi.net.world", "repro.serving.chaos.shims"):
        "the chaos socket shim wraps the socket world's connections; "
        "moves with the codec to repro.wire",
    ("repro.mpi.net.__main__", "repro.serving.chaos.plan"):
        "the socket-world launcher builds fault plans for its smoke; "
        "moves with the codec to repro.wire",
}


def module_names() -> List[str]:
    """Every module under ``src/repro``, as a dotted name."""
    names = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        parts = path.relative_to(SRC_DIR).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def _module_path(name: str) -> Path:
    path = SRC_DIR.joinpath(*name.split("."))
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def module_level_imports(name: str) -> Iterator[Tuple[str, int]]:
    """``(imported repro module, line)`` for the imports ``name`` runs
    when it is imported: everything outside function bodies and
    ``if TYPE_CHECKING:`` blocks."""
    tree = ast.parse(_module_path(name).read_text(), str(_module_path(name)))
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.If) and _is_type_checking(node):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{name}: relative import"
            if node.module and node.module.split(".")[0] == "repro":
                yield node.module, node.lineno
        else:
            stack.extend(ast.iter_child_nodes(node))


def layer(name: str) -> str:
    parts = name.split(".")
    return parts[1] if len(parts) > 1 else "repro"


def edge_allowed(importer: str, imported: str) -> bool:
    source, target = layer(importer), layer(imported)
    if target in SHARED:
        return True
    if target == "datasets" and source not in DATASET_USERS \
            and not importer.endswith(".__main__"):
        return False
    return RANKS[target] <= RANKS[source]


def test_every_module_is_in_a_known_layer():
    unknown = {layer(name) for name in module_names()} \
        - set(RANKS) - set(SHARED)
    assert not unknown


def test_module_level_imports_follow_the_layer_table():
    violations = []
    used = set()
    for name in module_names():
        for imported, line in module_level_imports(name):
            if edge_allowed(name, imported):
                continue
            if (name, imported) in EXCEPTIONS:
                used.add((name, imported))
                continue
            violations.append(f"{name}:{line} imports {imported}")
    assert not violations, "\n".join(violations)
    assert used == set(EXCEPTIONS), (
        f"stale exceptions: {sorted(set(EXCEPTIONS) - used)}")


def _run_python(script: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p])
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], env=env,
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


_LOADED = """
    import sys
    def loaded(*packages):
        return sorted(name for name in sys.modules
                      if any(name == package or name.startswith(package + ".")
                             for package in packages))
"""


def test_a_batched_training_chain_loads_no_scipy_asyncio_or_upper_layer():
    out = _run_python(_LOADED + """
    from repro.core import BPMFConfig, GibbsSampler, SamplerOptions
    from repro.datasets import make_chembl_like

    data = make_chembl_like(scale=500.0, seed=0)
    result = GibbsSampler(BPMFConfig(num_latent=4, burn_in=1, n_samples=1),
                          SamplerOptions(engine="batched")).run(
        data.split.train, data.split, seed=0)
    assert len(result.rmse_per_sample) == 1
    print(loaded("scipy", "asyncio", "repro.serving", "repro.distributed",
                 "repro.mpi"))
    """)
    assert out.strip() == "[]"


def test_a_socket_chain_loads_no_performance_model():
    out = _run_python(_LOADED + """
    # What the socket benchmark imports, then a 2-rank chain.
    from repro.core import BPMFConfig
    from repro.datasets import make_chembl_like
    from repro.distributed import (DistributedGibbsSampler, DistributedOptions,
                                   build_comm_plan, partition_ratings)
    from repro.distributed.spmd import run_local_socket_world
    from repro.mpi.net import start_local_world

    data = make_chembl_like(scale=500.0, seed=0)
    config = BPMFConfig(num_latent=4, burn_in=1, n_samples=1)
    outcomes = run_local_socket_world(
        lambda: DistributedGibbsSampler(config, DistributedOptions(n_ranks=2)),
        2, data.split.train, data.split, seed=0)
    assert len(outcomes) == 2
    print(loaded("repro.parallel", "repro.distributed.scaling"))
    """)
    assert out.strip() == "[]"


def test_an_in_process_fold_in_and_top_n_load_no_scipy():
    """Nor the training engine, the planner, or the sparse utilities the
    service never calls."""
    out = _run_python(_LOADED + """
    import numpy as np
    from repro.bench.serving import make_bench_snapshot
    from repro.serving import PredictionService

    service = PredictionService(make_bench_snapshot(30, 20, 4))
    user = service.fold_in(np.array([0, 3]), np.array([4.0, 2.5]))
    service.add_ratings(user, np.array([7]), np.array([3.0]))
    assert len(service.top_n(user, n=5).items) == 5
    print(loaded("scipy", "repro.core.batch_engine", "repro.core.updates",
                 "repro.sparse.buckets", "repro.sparse.reorder",
                 "repro.sparse.io", "repro.sparse.shard",
                 "repro.sparse.split"))
    """)
    assert out.strip() == "[]"


def test_every_module_imports_on_its_own():
    """Each module in a fresh ``repro`` namespace: ``sys.modules`` is
    purged of ``repro.*`` before every import, so no module leans on an
    import that some other module happened to run first."""
    out = _run_python(f"""
    import importlib, sys
    failures = []
    for name in {module_names()!r}:
        for loaded in [m for m in sys.modules
                       if m == "repro" or m.startswith("repro.")]:
            del sys.modules[loaded]
        try:
            importlib.import_module(name)
        except Exception as error:
            failures.append(f"{{name}}: {{type(error).__name__}}: {{error}}")
    print("\\n".join(failures))
    """)
    assert out.strip() == ""


@pytest.mark.parametrize("package", [
    "repro", "repro.core", "repro.serving", "repro.serving.net",
    "repro.bench", "repro.distributed", "repro.mpi", "repro.parallel",
    "repro.sparse"])
def test_lazy_exports_resolve_every_public_name(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    with pytest.raises(AttributeError, match="no attribute"):
        getattr(module, "no_such_name")


def test_the_checkpoint_module_lives_in_core_only():
    assert importlib.util.find_spec("repro.core.checkpoint") is not None
    assert importlib.util.find_spec("repro.serving.checkpoint") is None
    from repro import serving
    from repro.core import checkpoint
    assert serving.Snapshot is checkpoint.Snapshot
    assert serving.CheckpointConfig is checkpoint.CheckpointConfig
