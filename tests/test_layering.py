"""Import layering: which rookpack modules each module pulls in."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _imported(module):
    """The entries that importing module alone adds to sys.modules, in a
    fresh interpreter."""
    code = (f"import sys; before = set(sys.modules); import {module}; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(out.split())


def _loaded(module):
    """The rookpack.* modules that importing module pulls in, module itself
    left out."""
    return {m for m in _imported(module) if m.split(".")[0] == "rookpack"} - {module}


def test_oracles_share_no_solver_code():
    assert _loaded("rookpack.oracles") == {"rookpack", "rookpack.core"}


def test_solve_imports_neither_constructions_nor_oracles():
    assert not _loaded("rookpack.solve") & {"rookpack.constructions", "rookpack.oracles"}


def test_verifiers_and_bounds_load_only_core():
    # every witness is checked by rookpack.verify, so it must not come to
    # depend on the solver it checks; the solver and the constructions
    # both read rookpack.families, so it depends on neither
    for module in ("rookpack.verify", "rookpack.bounds", "rookpack.families"):
        assert _loaded(module) == {"rookpack", "rookpack.core"}, module


def test_cli_loads_only_the_standard_library():
    # the package declares no dependencies: scipy and jsonschema serve the
    # tests only, so the whole command line must run without them
    tops = {m.split(".")[0] for m in _imported("rookpack.cli")} - {"rookpack"}
    assert tops <= sys.stdlib_module_names, tops - sys.stdlib_module_names


def test_cli_imports_neither_dataclasses_nor_inspect():
    # every command is a fresh process, so start-up is most of a cached
    # solve's time: dataclasses alone would pull in inspect, and the
    # class processing it runs at import
    assert not _imported("rookpack.cli") & {"dataclasses", "inspect"}
