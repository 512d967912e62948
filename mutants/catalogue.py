"""Mutants of rookpack and the tests that must kill them.

Each entry names a file, an exact old string that occurs there once, its
replacement, and the ids of the tests that must fail on the mutated copy.
The runner copies src/, tests/ and pyproject.toml to a temporary
directory (pyproject.toml's pythonpath would otherwise import the
unmutated package), checks that every listed test passes there, then
applies one entry at a time and runs only that entry's tests.  A mutant
survives if any of its tests passes.  Run from the repository root:

    python mutants/catalogue.py

It prints one line per mutant and exits 1 if any survives or any entry
no longer applies.  A plain pytest run does not collect it: testpaths
is tests/.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

Mutant = namedtuple("Mutant", "name file old new tests")

SOLVE, FAMILIES = "src/rookpack/solve.py", "src/rookpack/families.py"
VERIFY, CLI = "src/rookpack/verify.py", "src/rookpack/cli.py"
KERNEL = "tests/test_solve.py::test_point_packing_kernel_matches_coordinates"
PINNED = "tests/test_solve.py::test_packing_trees_pinned_at_budget_edges"
SEARCH = "tests/test_solve.py::test_packing_search_tree_pinned"
EMPTY = "tests/test_solve.py::test_packing_trees_pinned_where_most_lines_must_be_empty"
BRACKET = "tests/test_solve.py::test_packing_kernels_keep_the_bracket_contract"
PURE = "tests/test_solve.py::test_packing_kernels_are_pure"
CONFLICTS = "tests/test_solve.py::test_conflict_masks_match_coordinates"
CAP = ("tests/test_constructions.py::"
       "test_generators_and_compose_refuse_grids_over_the_point_cap")
TICKS = "tests/test_solve.py::test_bulk_ticks_book_what_single_ticks_do"
LP_TEXT = "tests/test_solve.py::test_encode_ilp_text_pinned"
LP_LARGER = "tests/test_solve.py::test_encode_ilp_text_pinned_on_larger_grids"
LP_CLASHES = "tests/test_solve.py::test_encode_ilp_max_pack_cliques_are_the_clashes"
LP_COVERAGE = "tests/test_solve.py::test_encode_ilp_cover_rows_are_coverage"
REACHED = "tests/test_verify.py::test_two_packing_counts_rooks_on_reached_points"
REFERENCE = "tests/test_verify.py::test_verifiers_match_coordinate_reference"
LISTING = "tests/test_verify.py::test_covering_count_at_the_listing_cap"
VIOLATIONS = "tests/test_verify.py::test_violation_cap"
DUMP = "tests/test_cli.py::test_dump_json_writes_the_bytes_of_json_dumps"
REPLAY = "tests/test_cli.py::test_solve_replays_only_the_canonical_bytes"

CATALOGUE = [
    # _PointPacking, the packing search's kernel
    Mutant("lock a point of S at l + 1 lonely lines", SOLVE,
           "if len(alone) == l:", "if len(alone) == l + 1:", [KERNEL, EMPTY]),
    Mutant("lock the new point at l + 1 lonely lines", SOLVE,
           "if len(own) == l:", "if len(own) == l + 1:", [KERNEL]),
    Mutant("take a lonely line on any occupied line (not empty for single)", SOLVE,
           "elif single[a] >> p & 1:", "elif not empty[a] >> p & 1:", [KERNEL]),
    Mutant("lock a point's lines read from empty", SOLVE,
           "if single[b] >> q & 1]", "if empty[b] >> q & 1]", [KERNEL, EMPTY]),
    Mutant("drop the candidates from the clique count", SOLVE,
           "return lines, n * lines + k * cands.bit_count() + cliques",
           "return lines, n * lines", [KERNEL]),
    Mutant("witness along the highest l lonely axes", SOLVE,
           "single[a] >> q & 1][:l]", "single[a] >> q & 1][-l:]", [KERNEL]),
    Mutant("keep locked lines among the candidates", SOLVE,
           "_at_least(empty, l) & ~locked", "_at_least(empty, l)", [KERNEL, EMPTY]),
    Mutant("count empty lines up to l - 1", SOLVE,
           "_at_least(empty, l) & ~locked", "_at_least(empty, l - 1) & ~locked",
           [KERNEL]),
    Mutant("step = 1", SOLVE, "self.step = -(-k // l)", "self.step = 1", [BRACKET]),
    Mutant("include does not copy single", SOLVE,
           "empty[:], single[:], []", "empty[:], single, []", [PINNED, SEARCH, EMPTY, PURE]),
    # _closed_conflicts
    Mutant("occupants shifted by points, not placements", SOLVE,
           "m |= inst.occupants[a] << corner * D", "m |= inst.occupants[a] << corner",
           [CONFLICTS]),
    # families.configuration
    Mutant("no point-cap check in families.configuration", FAMILIES,
           "    g.check_bitset()\n    return Configuration(", "    return Configuration(",
           [CAP]),
    # _solve's tick, which books nodes and reads the budget
    Mutant("count the stopping node as pruned", SOLVE,
           "stats.pruned += due - 1 - stats.nodes", "stats.pruned += due - stats.nodes",
           [TICKS]),
    Mutant("> for >= at the due node", SOLVE,
           "while nodes >= due:", "while nodes > due:", [TICKS]),
    # as if tick booked size pruned nodes before its loop: a stop books both
    Mutant("book pruned before the loop", SOLVE,
           "stats.pruned += due - 1 - stats.nodes",
           "stats.pruned += size + due - 1 - stats.nodes", [TICKS]),
    Mutant("no doubling", SOLVE,
           "min(budget.max_nodes + 1, 2 * due, (due | 4095) + 1)",
           "min(budget.max_nodes + 1, (due | 4095) + 1)", [TICKS]),
    Mutant("one budget check per call (if for while)", SOLVE,
           "while nodes >= due:", "if nodes >= due:", [TICKS]),
    Mutant("report the run's end as the stopping node", SOLVE,
           "stats.nodes = due\n", "stats.nodes = nodes\n", [TICKS]),
    # encode_ilp
    Mutant("cover rows join above over axes 0..k-1", SOLVE,
           "zip(*below, at, *reversed(above))", "zip(*below, at, *above)",
           [LP_TEXT, LP_LARGER, LP_COVERAGE]),
    Mutant("at[q] left out of a clique row", SOLVE,
           "(lo[q], at[q], hi[q])", "(lo[q], hi[q])", [LP_TEXT, LP_LARGER, LP_CLASHES]),
    Mutant("a cover row with p's own names last", SOLVE,
           "zip(*below, at, *reversed(above))", "zip(*below, *reversed(above), at)",
           [LP_TEXT, LP_LARGER, LP_COVERAGE]),
    # the verifiers
    Mutant("two-packing counts the 2s on a line, not the 1s", VERIFY,
           "total += seg.count(1)", "total += seg.count(2)", [REACHED, REFERENCE]),
    Mutant("no own-point correction", VERIFY,
           "        total += (after == 2) - (before == 2)\n", "", [REACHED, REFERENCE]),
    Mutant("the closed-mode +1 applied in strict mode", VERIFY,
           "min(before + closed, 2)", "min(before + 1, 2)", [REACHED, REFERENCE]),
    Mutant("no hold of the own point at 2", VERIFY,
           "        reached[b] = 2  # held", "        # held", [REACHED, REFERENCE]),
    Mutant("covering count from p + 1", VERIFY,
           'hit.count(b"0", p) if', 'hit.count(b"0", p + 1) if', [LISTING, VIOLATIONS]),
    Mutant("no count past the listed points", VERIFY,
           'total = len(violations) + (hit.count(b"0", p) if p >= 0 else 0)',
           "total = len(violations)", [LISTING, VIOLATIONS]),
    # the CLI's JSON writer and cache replay
    Mutant('list item separator ", "', CLI,
           '("," + inner).join([_dump', '(", " + inner).join([_dump', [DUMP]),
    Mutant('dict item separator ", "', CLI,
           '("," + inner).join(items)', '(", " + inner).join(items)', [DUMP]),
    Mutant("a 4-space indent", CLI,
           'inner = indent + "  "\n        items', 'inner = indent + "    "\n        items',
           [DUMP]),
    Mutant("an empty list written over two lines", CLI,
           'return "[]"', 'return "[" + indent + "]"', [DUMP]),
    Mutant("strings through json.dumps(ensure_ascii=False)", CLI,
           "return encode_basestring_ascii(obj)", "return json.dumps(obj, ensure_ascii=False)",
           [DUMP]),
    Mutant("floats through repr", CLI,
           "return json.dumps(obj)  #",
           "return repr(obj) if type(obj) is float else json.dumps(obj)  #", [DUMP]),
    Mutant("records read in text mode", CLI,
           'with open(path, newline="") as f:', "with open(path) as f:", [REPLAY]),
]

ROOT = Path(__file__).resolve().parent.parent


def passing(work, tests):
    """The ids among tests that pass in work; one that fails, errors or is
    not collected does not."""
    # no bytecode: a mutant and the original can share a size and an mtime
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests],
        cwd=work, env=env, capture_output=True, text=True).stdout
    return set(tests) & set(re.findall(r"^PASSED (\S+)", out, re.M))


def main():
    start, failures = time.monotonic(), 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__")
        for d in ("src", "tests"):
            shutil.copytree(ROOT / d, work / d, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", work)
        listed = sorted({t for m in CATALOGUE for t in m.tests})
        broken = set(listed) - passing(work, listed)
        if broken:
            sys.exit(f"tests failing before any mutant: {sorted(broken)}")
        for m in CATALOGUE:
            path = work / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"STALE     {m.name}: old string occurs {text.count(m.old)} times")
                failures += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            try:
                passed = sorted(passing(work, m.tests))
            finally:
                path.write_text(text)
            print(f"{'SURVIVED' if passed else 'killed':9} {m.name}"
                  + (f": {', '.join(passed)} passed" if passed else ""))
            failures += bool(passed)
    print(f"{len(CATALOGUE)} mutants, {failures} survived or stale, "
          f"{time.monotonic() - start:.0f} s")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
