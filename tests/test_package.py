import ast
import os
import subprocess
import sys
from pathlib import Path

import budgetmax
from budgetmax import oracles

# Names the package does not export: reference checks that live in
# budgetmax.oracles, and helpers that no production module needs.
NOT_EXPORTED = ("derive_constants", "ProjectionCertificate", "projection_certificate",
                "analytic_selection_bounds", "analytic_intersection_lower_bound", "reward_order")


def test_oracles_import_only_core_and_sampler():
    # the references stay apart from the surrogate and the projection they check
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    relative = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            relative.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            assert not node.module.startswith("budgetmax")
        elif isinstance(node, ast.Import):
            assert not [alias for alias in node.names if alias.name.startswith("budgetmax")]
    assert relative <= {"core", "sampler"}


def test_every_public_name_resolves():
    for name in budgetmax.__all__:
        assert getattr(budgetmax, name) is not None
    for name in NOT_EXPORTED:
        assert name not in budgetmax.__all__ and not hasattr(budgetmax, name)


def test_importing_the_cli_loads_numpy_random():
    # numpy loads numpy.random at first use, which in a run comes after its
    # output directory exists; an import that fails there escapes the cleanup
    src = str(Path(budgetmax.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, budgetmax.cli; print('numpy.random' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"
