"""Digests of every solve on two fixed sets of grids, to show that a
refactor keeps each search tree, bound and witness.

For each solve it dumps (nodes, pruned, stop_reason, lower, upper,
optimum, the witness rooks sorted) and prints, per set, a sha256 prefix
of the dumps and the CPU time spent in each mode:

  - criterion 3's grids (k <= 7, n^k <= 243) in modes a, b, closed c
    and strict c (c only where l >= 2), at 60,000 nodes: 828 solves;
  - the grids with 243 < n^k <= 729 in modes b, closed c and strict c,
    at 20,000 nodes: 638 solves.

A node cap, not a clock, stops each solve, so the digests are the same
on any machine.  Run from a checkout's root, with no flags; it imports
the rookpack of that checkout's src/:

    python mutants/solve_digests.py

A plain pytest run does not collect it: testpaths is tests/.
"""

import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rookpack.core import GridParams  # noqa: E402
from rookpack.solve import (  # noqa: E402
    SolverBudget,
    exact_max_packing,
    exact_max_two_packing,
    exact_min_covering,
)

MODES = {
    "a": exact_min_covering,
    "b": exact_max_packing,
    "c closed": lambda g, budget: exact_max_two_packing(g, "closed", budget),
    "c strict": lambda g, budget: exact_max_two_packing(g, "strict", budget),
}


def grids(low, high):
    """(n, k, l) for every grid with low < n^k <= high and 2^k <= high."""
    k = 1
    while 2 ** k <= high:
        n = 1
        while n ** k <= high:
            if n ** k > low:
                yield from ((n, k, l) for l in range(1, k + 1))
            n += 1
        k += 1


def digest(name, nkls, modes, max_nodes):
    budget = SolverBudget(max_nodes=max_nodes, max_seconds=1e9)
    sha, cpu, solves = hashlib.sha256(), dict.fromkeys(modes, 0.0), 0
    for n, k, l in nkls:
        g = GridParams(n, k, l)
        for mode in modes:
            if mode.startswith("c") and l < 2:
                continue
            start = time.process_time()
            res = MODES[mode](g, budget)
            cpu[mode] += time.process_time() - start
            s = res.stats
            rooks = sorted((r.point, tuple(sorted(r.dirs))) for r in res.witness.rooks)
            dump = (n, k, l, mode, s.nodes, s.pruned, s.stop_reason, res.lower_bound,
                    res.upper_bound, res.optimum, rooks)
            sha.update(repr(dump).encode() + b"\n")
            solves += 1
    print(f"{name}: {solves} solves at {max_nodes:,} nodes, sha256 {sha.hexdigest()[:16]}")
    print("  CPU s: " + ", ".join(f"{mode} {t:.2f}" for mode, t in cpu.items()))


def main():
    digest("k <= 7, n^k <= 243", grids(0, 243), ["a", "b", "c closed", "c strict"], 60_000)
    digest("243 < n^k <= 729", grids(243, 729), ["b", "c closed", "c strict"], 20_000)


if __name__ == "__main__":
    main()
