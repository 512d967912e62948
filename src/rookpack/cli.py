"""Command-line surface: bounds, construct, verify, solve, encode, table,
compose.

Configurations travel as JSON files, tables as CSV on stdout, solver
results as JSON backed by an on-disk cache.  Exit codes: 0 ok, 2 usage,
3 I/O or parse error, 4 budget exhausted.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import functools
import hashlib
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter

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
    SolveResult,
    SolveStats,
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


_DIRS, _RAW_DIRS = attrgetter("dirs"), itemgetter("dirs")


def config_from_dict(d: dict) -> Configuration:
    """The Configuration a JSON document spells; GridParams and
    Configuration refuse a size, coordinate or axis that is not an int."""
    try:
        g = GridParams(d["n"], d["k"], d["l"])
        if type(d["rooks"]) is not list:
            raise TypeError("rooks is not an array")
        rooks = [Rook(r["point"], r["dirs"]) for r in d["rooks"]]
        # a set merges 0 with 0, and 1 with true: Rook would not see them.  A
        # set is never longer than its list, so equal totals repeat no axis
        if sum(map(len, map(_DIRS, rooks))) != sum(map(len, map(_RAW_DIRS, d["rooks"]))):
            for r, raw in zip(rooks, d["rooks"]):
                if len(r.dirs) != len(raw["dirs"]):
                    raise InvalidArgument(f"rook at {r.point} repeats an axis in {raw['dirs']}")
    except (KeyError, TypeError) as e:
        raise RookError(f"malformed configuration file: {e}")
    return Configuration(g, rooks)


def dump_json(obj) -> str:
    """json.dumps(obj, indent=2) plus a newline, byte for byte, written by
    joining strings.  With an indent, json.dumps runs its pure-Python
    iterencode generators (the C encoder serves indent=None only), and a
    cache replay encodes a record to compare its bytes; so containers are
    joined here, and json.dumps sees only the scalars this does not spell.
    A key that is not a str raises TypeError."""
    return _dump(obj, "\n") + "\n"


def _dump(obj, indent: str) -> str:
    """obj in json.dumps(indent=2) form, each line break followed by indent."""
    if type(obj) is int:
        return repr(obj)
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = [f"{encode_basestring_ascii(key)}: {_dump(val, inner)}" for key, val in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([_dump(val, inner) for val in obj]) + indent + "]"
    return json.dumps(obj)  # float, bool, None, a subclass: the stdlib's spelling


class _ParseError(Exception):
    """A file that holds no JSON document this process can read: exit 3."""


def load_json(path):
    with open(path) as f:
        try:
            return json.load(f)
        except (ValueError, RecursionError) as e:  # not UTF-8 or JSON, an over-long int, too deep
            raise _ParseError(e) from e


def _frac(x):
    """Exact JSON spelling of a Fraction (an int when integral), or of each value of a dict."""
    if isinstance(x, dict):
        return {key: _frac(val) for key, val in x.items()}
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


# ---------------------------------------------------------------- cache
@functools.cache
def _revision() -> str:
    """Digest of the package's .py sources, read once per process."""
    digest = hashlib.sha256()
    package = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as f:
                data = f.read()
            digest.update(f"{name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


@contextlib.contextmanager
def _locked_cache():
    """The cache directory, held under an exclusive flock on its .lock
    file, which also names the sources that wrote the records.  When it
    holds anything but their digest, every solve record is removed, since
    its stats describe another search, and the digest is written in."""
    directory = os.environ.get("ROOKPACK_CACHE", DEFAULT_CACHE_DIR)
    if not os.path.isdir(directory):  # on one that exists, makedirs raises and catches EEXIST
        os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, ".lock"), "a+b") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        lock.seek(0)
        revision = _revision().encode()
        if lock.read() != revision:
            for name in os.listdir(directory):
                if name.startswith("solve_") and name.endswith(".json"):
                    os.remove(os.path.join(directory, name))
            lock.truncate(0)
            lock.write(revision)
            lock.flush()
        yield directory  # closing the file releases the lock


# ---------------------------------------------------------------- commands
# the bounds document's keys after n, k and l; a BoundReport field that is None is left out
_BOUND_KEYS = ("a_lower", "a_lower_by", "a_upper", "b_upper", "b_incidence", "asymptotic",
               "b_hypercube", "c_upper", "c_sphere")


def cmd_bounds(args) -> int:
    g = GridParams(args.n, args.k, args.l)
    rep = bound_report(g)
    out = {"n": g.n, "k": g.k, "l": g.l}
    for key in _BOUND_KEYS:
        if (val := getattr(rep, key)) is not None:
            out[key] = _frac(val)
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


# every parameter of a construction, each a --flag of construct
_CONSTRUCT_PARAMS = ("n", "k", "l", "n1", "t", "p", "a", "b")


def cmd_construct(args) -> int:
    name = args.name
    if name not in CONSTRUCTIONS:
        raise InvalidArgument(f"unknown construction {name!r}")
    fn, wanted = CONSTRUCTIONS[name]
    for p in _CONSTRUCT_PARAMS:
        given = getattr(args, p) is not None
        if given != (p in wanted):
            raise InvalidArgument(f"construction {name} {'takes no' if given else 'needs'} --{p}")
    params = {p: getattr(args, p) for p in wanted}
    extra = {}
    if name == "diagonal_slab_block":
        cfg, axis_report = diagonal_slab_block(**params)
        extra["axis_report"] = list(axis_report)
    else:
        cfg = fn(**params)
    return _write_config(cfg, args.out, {"name": name}, **extra)


def cmd_verify(args) -> int:
    if args.strict and args.mode != "pack2":
        raise InvalidArgument("--strict is for mode pack2 only")
    cfg = config_from_dict(load_json(args.path))
    if args.mode == "cover":
        rep = verify_covering(cfg)
    elif args.mode == "pack":
        rep = verify_packing(cfg)
    else:
        rep = verify_two_packing(cfg, mode="strict" if args.strict else "closed")
    sys.stdout.write(dump_json({
        "valid": rep.valid,
        "total_violations": rep.total_violations,
        "capped": rep.capped,
        "violations": [
            {"kind": v.kind, "point": v.point, "rooks": list(v.rooks) if v.rooks else None}
            for v in rep.violations
        ],
    }))
    return EXIT_OK if rep.valid else 1


def _solver(args):
    """(SolveResult.mode, cache record flags, solve(g, budget)) for a
    solve or table request.  --strict belongs to mode c and --N to
    coverage; the other modes reject them."""
    mode, strict, N = args.mode, args.strict, args.N
    for flag, given, owner in (("--strict", strict, "c"), ("--N", N is not None, "coverage")):
        if given and mode != owner:
            raise InvalidArgument(f"{flag} is for mode {owner} only")
    if mode == "coverage" and N is None:
        raise InvalidArgument("coverage mode needs --N")
    if mode == "a":
        return "min_cover", "", exact_min_covering
    if mode == "b":
        return "max_pack", "", exact_max_packing
    if mode == "c":
        two = "strict" if strict else "closed"
        return (f"max_two_pack_{two}", "strict" if strict else "",
                lambda g, budget: exact_max_two_packing(g, two, budget))
    return "max_coverage", f"N={N}", lambda g, budget: exact_max_coverage(g, N, budget)


def _record(request, res) -> str:
    """The text solve prints, and caches when exact, for a request and its
    SolveResult."""
    return dump_json({
        **request,
        "optimum": res.optimum,
        "exact": res.exact,
        "lower_bound": res.lower_bound,
        "upper_bound": res.upper_bound,
        "stats": {
            "nodes": res.stats.nodes,
            "pruned": res.stats.pruned,
            "wall_time": res.stats.wall_time,
            "stop_reason": res.stats.stop_reason,
        },
        "witness": config_to_dict(res.witness) if res.witness is not None else None,
    })


def cmd_solve(args) -> int:
    mode, flags, solve = _solver(args)
    g = GridParams(args.n, args.k, args.l)
    budget = SolverBudget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)
    request = {"mode": args.mode, "n": g.n, "k": g.k, "l": g.l, "flags": flags}
    suffix = "_" + flags.replace("=", "") if flags else ""

    with _locked_cache() as directory:
        path = os.path.join(directory, f"solve_{args.mode}{suffix}_{g.n}_{g.k}_{g.l}.json")
        cached = _load_cached(path, request, g, mode, args.N)
        if cached is not None:
            sys.stderr.write(f"cache hit: {path}\n")
            sys.stdout.write(cached)
            return EXIT_OK

        res = solve(g, budget)
        text = _record(request, res)
        if res.exact:
            with open(path + ".tmp", "w") as f:
                f.write(text)
            os.replace(path + ".tmp", path)
            sys.stderr.write(f"cache miss: wrote {path}\n")
        else:
            sys.stderr.write(f"cache miss: capped result, not written to {path}\n")
        sys.stdout.write(text)
        return EXIT_OK if res.exact else EXIT_BUDGET


def _load_cached(path, request, g, mode, N):
    """Record text if it is exactly what solve writes for the request,
    with an optimum whose witness still checks out, else None."""
    try:
        with open(path, newline="") as f:  # untranslated: a CRLF record is a miss
            text = f.read()
        record = json.loads(text)
        value = record["optimum"]
        cfg = config_from_dict(record["witness"])
        res = SolveResult(mode, value, cfg, SolveStats(**record["stats"]), value, value)
    except (OSError, ValueError, RecursionError, KeyError, TypeError, RookError):
        return None
    # comparing text, not values, also rejects 2.0 or true where 2 or 1 was asked
    if type(value) is not int or text != _record(request, res) or cfg.params != g:
        return None
    return text if check_witness(mode, cfg, value, N) else None


def cmd_encode(args) -> int:
    g = GridParams(args.n, args.k, args.l)
    g.check_bitset()  # a rejected instance leaves --out untouched
    if not args.out:
        encode_ilp(g, args.mode, sys.stdout)
        return EXIT_OK
    with open(args.out, "w") as f:
        summary = encode_ilp(g, args.mode, f)
    sys.stdout.write(dump_json(summary))
    return EXIT_OK


def _parse_range(spec: str) -> range:
    lo, sep, hi = spec.partition("..")
    try:
        return range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise InvalidArgument(f"bad range {spec!r}, expected N or LO..HI")


def cmd_table(args) -> int:
    ns = _parse_range(args.n)
    if not ns:
        raise InvalidArgument("empty n range")
    GridParams(ns[-1], args.k, args.l).check_bitset()  # the largest grid, before any solve
    budget = SolverBudget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)
    _, _, solve = _solver(args)
    rows = ["n,lower,exact,upper,density,status"]
    for n in ns:
        res = solve(GridParams(n, args.k, args.l), budget)
        # best covering or packing found; both bounds equal it when exact
        value = res.upper_bound if args.mode == "a" else res.lower_bound
        denom = n ** (args.k - (2 if args.mode == "c" else 1))
        status = "exact" if res.exact else res.stats.stop_reason
        rows.append(
            f"{n},{res.lower_bound},{value},{res.upper_bound},{value / denom:.6f},{status}"
        )
    sys.stdout.write("\n".join(rows) + "\n")
    return EXIT_OK


def cmd_compose(args) -> int:
    if args.op != "blowup":
        for flag, val in (("--kind", args.kind), ("--n-inner", args.n_inner)):
            if val is not None:
                raise InvalidArgument(f"{flag} is for blowup only")
    elif args.n_inner is None:
        raise InvalidArgument("blowup needs --n-inner")
    cfg = config_from_dict(load_json(args.path))
    if args.op == "blowup":
        builder = {
            "cover": blowup_covering,
            "pack": blowup_packing,
            "pack2": blowup_two_packing,
        }[args.kind or "cover"]
        out_cfg = builder(cfg, args.n_inner)
    elif args.op == "stack":
        out_cfg = stack(cfg)
    else:
        out_cfg = extend_covering(cfg)
    return _write_config(out_cfg, args.out, {"op": args.op})


# ---------------------------------------------------------------- wiring
@functools.cache
def _build_parser():
    """The argument parser, built on the first call and shared by every
    later main() in the process; parse_args leaves no state in it."""
    p = argparse.ArgumentParser(prog="rookpack")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="closed-form bounds for one instance")
    for flag in ("--n", "--k", "--l"):
        b.add_argument(flag, type=int, required=True)
    b.set_defaults(fn=cmd_bounds)

    c = sub.add_parser("construct", help="emit a named construction as JSON")
    c.add_argument("name")
    for param in _CONSTRUCT_PARAMS:
        c.add_argument(f"--{param}", type=int)
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
    s.add_argument("--max-nodes", type=int, default=SolverBudget.max_nodes)
    s.add_argument("--max-seconds", type=float, default=SolverBudget.max_seconds)
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
    t.add_argument("--max-nodes", type=int, default=SolverBudget.max_nodes)
    t.add_argument("--max-seconds", type=float, default=SolverBudget.max_seconds)
    t.set_defaults(fn=cmd_table, strict=False, N=None)

    m = sub.add_parser("compose", help="blowup / stack / extend a configuration")
    m.add_argument("op", choices=("blowup", "stack", "extend"))
    m.add_argument("path")
    m.add_argument("--kind", choices=("cover", "pack", "pack2"))
    m.add_argument("--n-inner", dest="n_inner", type=int)
    m.add_argument("--out")
    m.set_defaults(fn=cmd_compose)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error, 0 after --help or --version
        return e.code
    try:
        return args.fn(args)
    except RookError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except _ParseError as e:
        sys.stderr.write(f"parse error: {e}\n")
        return EXIT_IO
    except OSError as e:
        sys.stderr.write(f"I/O error: {e}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
