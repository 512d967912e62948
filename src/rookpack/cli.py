"""Command-line surface: bounds, construct, verify, solve, encode, table,
compose.

Configurations travel as JSON files, tables as CSV on stdout, solver
results as JSON backed by an on-disk cache.  Exit codes: 0 ok, 2 usage,
3 I/O or parse error, 4 budget exhausted.
"""

from __future__ import annotations

import argparse
import fcntl
import io
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .core import (
    Configuration,
    GridParams,
    InvalidArgument,
    Rook,
    RookError,
)
from .bounds import bound_report
from .constructions import (
    CONSTRUCTIONS,
    blowup_covering,
    blowup_packing,
    blowup_two_packing,
    diagonal_slab_block,
    extend_covering,
    stack,
)
from .solve import (
    SolverBudget,
    check_witness,
    encode_ilp,
    exact_max_coverage,
    exact_max_packing,
    exact_max_two_packing,
    exact_min_covering,
)
from .verify import verify_covering, verify_packing, verify_two_packing

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BUDGET = 4

DEFAULT_CACHE_DIR = ".rookpack-cache"


# ---------------------------------------------------------------- JSON forms
def config_to_dict(cfg: Configuration) -> dict:
    g = cfg.params
    return {
        "n": g.n,
        "k": g.k,
        "l": g.l,
        "rooks": [
            {"point": list(r.point), "dirs": sorted(r.dirs)}
            for r in cfg.sorted_rooks()
        ],
    }


def _int(x) -> int:
    # int() would truncate 3.7 and accept True or "3": take JSON integers only
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def config_from_dict(d: dict) -> Configuration:
    try:
        g = GridParams(_int(d["n"]), _int(d["k"]), _int(d["l"]))
        rooks = [
            Rook(tuple(_int(x) for x in r["point"]), frozenset(_int(a) for a in r["dirs"]))
            for r in d["rooks"]
        ]
    except (KeyError, TypeError) as e:
        raise RookError(f"malformed configuration file: {e}")
    return Configuration(g, rooks)


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def load_json(path):
    with open(path) as f:
        return json.load(f)


def _frac(x):
    """Exact JSON spelling for a Fraction; plain int when integral."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


def report_to_dict(c, kind: str) -> dict:
    if kind == "cover":
        rep = verify_covering(c)
    elif kind == "pack":
        rep = verify_packing(c)
    else:
        rep = verify_two_packing(c, mode=kind)
    return {
        "valid": rep.valid,
        "total_violations": rep.total_violations,
        "capped": rep.capped,
        "violations": [
            {"kind": v.kind, "point": v.point, "rooks": list(v.rooks) if v.rooks else None}
            for v in rep.violations
        ],
    }


# ---------------------------------------------------------------- cache
def _cache_dir() -> str:
    return os.environ.get("ROOKPACK_CACHE", DEFAULT_CACHE_DIR)


class _CacheLock:
    """Advisory lock over the whole cache directory."""

    def __init__(self, directory):
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, ".lock")

    def __enter__(self):
        self.fd = open(self.path, "a+")
        fcntl.flock(self.fd, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc):
        fcntl.flock(self.fd, fcntl.LOCK_UN)
        self.fd.close()


# ---------------------------------------------------------------- commands
def cmd_bounds(args) -> int:
    g = GridParams(args.n, args.k, args.l)
    rep = bound_report(g)
    out = {
        "n": g.n,
        "k": g.k,
        "l": g.l,
        "a_lower": rep.a_lower,
        "a_upper": rep.a_upper,
        "b_upper": _frac(rep.b_upper),
        "b_incidence": _frac(rep.b_incidence),
        "asymptotic": {key: _frac(val) for key, val in rep.asymptotic.items()},
    }
    if rep.c_upper is not None:
        out["c_upper"] = _frac(rep.c_upper)
    sys.stdout.write(dump_json(out))
    return EXIT_OK


def _write_config(cfg, path, head, **extra) -> int:
    """Configuration JSON to stdout, or to the file path with the summary
    {**head, rooks, out} on stdout; extra fields go to stdout either way."""
    doc = config_to_dict(cfg)
    if path:
        with open(path, "w") as f:
            f.write(dump_json(doc))
        doc = {**head, "rooks": len(cfg), "out": path}
    sys.stdout.write(dump_json({**doc, **extra}))
    return EXIT_OK


def cmd_construct(args) -> int:
    name = args.name
    if name not in CONSTRUCTIONS:
        sys.stderr.write(f"unknown construction {name!r}\n")
        return EXIT_USAGE
    fn, wanted = CONSTRUCTIONS[name]
    params = {}
    for p in wanted:
        val = getattr(args, p, None)
        if val is None:
            sys.stderr.write(f"construction {name} needs --{p}\n")
            return EXIT_USAGE
        params[p] = val
    extra = {}
    if name == "diagonal_slab_block":
        cfg, axis_report = diagonal_slab_block(**params)
        extra["axis_report"] = list(axis_report)
    else:
        cfg = fn(**params)
    return _write_config(cfg, args.out, {"name": name}, **extra)


def cmd_verify(args) -> int:
    cfg = config_from_dict(load_json(args.path))
    kind = args.mode
    if kind == "pack2":
        kind = "strict" if args.strict else "closed"
    out = report_to_dict(cfg, kind)
    sys.stdout.write(dump_json(out))
    return EXIT_OK if out["valid"] else 1


def _run_solver(mode, g, budget, strict=False, symmetry=False, N=None):
    """Solve CLI mode a, b, c or coverage on grid g."""
    if mode == "a":
        return exact_min_covering(g, budget, symmetry_breaking=symmetry)
    if mode == "b":
        return exact_max_packing(g, budget)
    if mode == "c":
        return exact_max_two_packing(g, "strict" if strict else "closed", budget)
    return exact_max_coverage(g, N, budget)


def cmd_solve(args) -> int:
    if args.mode == "coverage" and args.N is None:
        sys.stderr.write("coverage mode needs --N\n")
        return EXIT_USAGE
    g = GridParams(args.n, args.k, args.l)
    budget = SolverBudget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)
    flags = []
    if args.mode == "c" and args.strict:
        flags.append("strict")
    if args.mode == "a" and args.symmetry:
        flags.append("sym")
    if args.mode == "coverage":
        flags.append(f"N={args.N}")
    flagstr = ",".join(flags)
    request = {"mode": args.mode, "n": g.n, "k": g.k, "l": g.l, "flags": flagstr}
    directory = _cache_dir()
    suffix = ("_" + flagstr.replace("=", "").replace(",", "_")) if flagstr else ""
    path = os.path.join(directory, f"solve_{args.mode}{suffix}_{g.n}_{g.k}_{g.l}.json")

    with _CacheLock(directory):
        cached = _load_cached(path, request, g, args)
        if cached is not None:
            sys.stdout.write(cached)
            return EXIT_OK

        res = _run_solver(args.mode, g, budget, args.strict, args.symmetry, args.N)
        out = {
            **request,
            "optimum": res.optimum,
            "exact": res.exact,
            "lower_bound": res.lower_bound,
            "upper_bound": res.upper_bound,
            "stats": {
                "nodes": res.stats.nodes,
                "pruned": res.stats.pruned,
                "wall_time": res.stats.wall_time,
            },
            "witness": config_to_dict(res.witness) if res.witness is not None else None,
        }
        text = dump_json(out)
        if not res.exact:
            sys.stdout.write(text)
            return EXIT_BUDGET
        with open(path + ".tmp", "w") as f:
            f.write(text)
        os.replace(path + ".tmp", path)
        sys.stdout.write(text)
        return EXIT_OK


def _solver_mode(args) -> str:
    """SolveResult.mode of the solver that answers a solve request."""
    if args.mode == "c":
        return "max_two_pack_strict" if args.strict else "max_two_pack_closed"
    return {"a": "min_cover", "b": "max_pack", "coverage": "max_coverage"}[args.mode]


def _load_cached(path, request, g, args):
    """Record text if it is exactly what solve writes for the request,
    with an optimum whose witness still checks out, else None."""
    try:
        with open(path) as f:
            text = f.read()
        record = json.loads(text)
        value = _int(record["optimum"])
        cfg = config_from_dict(record["witness"])
        expected = {**request, "optimum": value, "exact": True, "lower_bound": value,
                    "upper_bound": value, "stats": record["stats"],
                    "witness": config_to_dict(cfg)}
    except (OSError, ValueError, KeyError, TypeError, RookError):
        return None
    # comparing text, not values, also rejects 2.0 or true where 2 or 1 was asked
    if text != dump_json(expected) or cfg.params != g:
        return None
    return text if check_witness(_solver_mode(args), cfg, value, args.N) else None


def cmd_encode(args) -> int:
    g = GridParams(args.n, args.k, args.l)
    text = io.StringIO()
    summary = encode_ilp(g, args.mode, text)  # a rejected instance leaves --out untouched
    if args.out:
        with open(args.out, "w") as f:
            f.write(text.getvalue())
        sys.stdout.write(dump_json(summary))
    else:
        sys.stdout.write(text.getvalue())
    return EXIT_OK


def _parse_range(spec: str):
    lo, sep, hi = spec.partition("..")
    try:
        return list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        raise InvalidArgument(f"bad range {spec!r}, expected N or LO..HI")


def cmd_table(args) -> int:
    ns = _parse_range(args.n)
    ns = [n for n in ns if n >= 1]
    if not ns:
        sys.stderr.write("empty n range\n")
        return EXIT_USAGE
    budget = SolverBudget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)
    rows = ["n,lower,exact,upper,density"]
    for n in ns:
        res = _run_solver(args.mode, GridParams(n, args.k, args.l), budget)
        # best covering or packing found; both bounds equal it when exact
        value = res.upper_bound if args.mode == "a" else res.lower_bound
        denom = n ** (args.k - (2 if args.mode == "c" else 1))
        rows.append(
            f"{n},{res.lower_bound},{value},{res.upper_bound},{value / denom:.6f}"
        )
    sys.stdout.write("\n".join(rows) + "\n")
    return EXIT_OK


def cmd_compose(args) -> int:
    cfg = config_from_dict(load_json(args.path))
    if args.op == "blowup":
        if args.n_inner is None:
            sys.stderr.write("blowup needs --n-inner\n")
            return EXIT_USAGE
        builder = {
            "cover": blowup_covering,
            "pack": blowup_packing,
            "pack2": blowup_two_packing,
        }[args.kind]
        out_cfg = builder(cfg, args.n_inner)
    elif args.op == "stack":
        out_cfg = stack(cfg, args.copies if args.copies is not None else cfg.params.n)
    else:
        out_cfg = extend_covering(cfg)
    return _write_config(out_cfg, args.out, {"op": args.op})


# ---------------------------------------------------------------- wiring
def _build_parser():
    p = argparse.ArgumentParser(prog="rookpack")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="closed-form bounds for one instance")
    for flag in ("--n", "--k", "--l"):
        b.add_argument(flag, type=int, required=True)
    b.set_defaults(fn=cmd_bounds)

    c = sub.add_parser("construct", help="emit a named construction as JSON")
    c.add_argument("name")
    for flag in ("--n", "--k", "--l", "--n1", "--t", "--p", "--a", "--b"):
        c.add_argument(flag, type=int)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_construct)

    v = sub.add_parser("verify", help="check a configuration file")
    v.add_argument("mode", choices=("cover", "pack", "pack2"))
    v.add_argument("path")
    v.add_argument("--strict", action="store_true")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("solve", help="exact optimum with caching")
    s.add_argument("mode", choices=("a", "b", "c", "coverage"))
    for flag in ("--n", "--k", "--l"):
        s.add_argument(flag, type=int, required=True)
    s.add_argument("--N", type=int)
    s.add_argument("--strict", action="store_true")
    s.add_argument("--symmetry", action="store_true")
    s.add_argument("--max-nodes", type=int, default=5_000_000)
    s.add_argument("--max-seconds", type=float, default=60.0)
    s.set_defaults(fn=cmd_solve)

    e = sub.add_parser("encode", help="emit an integer program (LP format)")
    e.add_argument("mode", choices=("min_cover", "max_pack", "max_two_pack"))
    for flag in ("--n", "--k", "--l"):
        e.add_argument(flag, type=int, required=True)
    e.add_argument("--out")
    e.set_defaults(fn=cmd_encode)

    t = sub.add_parser("table", help="CSV sweep over n")
    t.add_argument("--mode", choices=("a", "b", "c"), required=True)
    t.add_argument("--k", type=int, required=True)
    t.add_argument("--l", type=int, required=True)
    t.add_argument("--n", required=True, help="range like 2..5")
    t.add_argument("--max-nodes", type=int, default=5_000_000)
    t.add_argument("--max-seconds", type=float, default=60.0)
    t.set_defaults(fn=cmd_table)

    m = sub.add_parser("compose", help="blowup / stack / extend a configuration")
    m.add_argument("op", choices=("blowup", "stack", "extend"))
    m.add_argument("path")
    m.add_argument("--kind", choices=("cover", "pack", "pack2"), default="cover")
    m.add_argument("--n-inner", dest="n_inner", type=int)
    m.add_argument("--copies", type=int)
    m.add_argument("--out")
    m.set_defaults(fn=cmd_compose)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except RookError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        sys.stderr.write(f"parse error: {e}\n")
        return EXIT_IO
    except OSError as e:
        sys.stderr.write(f"I/O error: {e}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
