"""Import layering: which rookpack modules each module pulls in."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _loaded(module):
    """The rookpack.* entries of sys.modules, module itself left out, after
    importing module alone in a fresh interpreter."""
    code = (f"import sys, {module}; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'rookpack')))")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(out.split()) - {module}


def test_oracles_share_no_solver_code():
    assert _loaded("rookpack.oracles") == {"rookpack", "rookpack.core"}


def test_solve_imports_neither_constructions_nor_oracles():
    assert not _loaded("rookpack.solve") & {"rookpack.constructions", "rookpack.oracles"}


def test_verifiers_and_bounds_load_only_core():
    # every witness is checked by rookpack.verify, so it must not come to
    # depend on the solver it checks
    for module in ("rookpack.verify", "rookpack.bounds"):
        assert _loaded(module) == {"rookpack", "rookpack.core"}, module
