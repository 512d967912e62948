"""The benchmark's workloads, their correctness checks and the layer probe.

A workload is a list of operations run in passes. Each operation has an
untimed `prepare`, a timed `run` that makes the calls into rookpack, and
an untimed `check` that returns (failures, fingerprint, counters). The
instance sets are fixed; the seed picks only the order of operations in
each pass and the perturbations that break the construct-verify copies.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

# Solver budget for capped solves: the wall-clock cap sits far above any
# run so that the node cap is always the limit that binds.
FAR_SECONDS = 3600.0

MODE_OF = {"a": "min_cover", "b": "max_pack", "c": "max_two_pack", "coverage": "max_coverage"}


@dataclass
class Op:
    key: str
    run: Callable[..., Any]
    check: Callable[[Any, dict], tuple]
    prepare: Callable[[dict], tuple] = lambda ctx: ()
    # "pass": its time counts toward pass_s; "latency": sampled for op_ms;
    # "both" and "other" as named.
    role: str = "both"
    # grids whose placement table and bound report the traced run measures
    grids: tuple = ()
    # True when the fingerprint depends on the seed
    seeded: bool = False


@dataclass
class Plan:
    """One workload's operations, made from the seed at set-up time, in
    groups whose ops run in the order given."""

    groups: list
    seed: int
    begin_pass: Callable[[int, dict], None] = lambda i, ctx: None
    end_pass: Callable[[int, dict], dict] = lambda i, ctx: {}

    @property
    def ops(self):
        return [op for group in self.groups for op in group]

    def pass_groups(self, index):
        """The groups of pass `index` in the order the seed gives them.
        What a group leaves in the pass context is dropped when it ends."""
        groups = list(self.groups)
        random.Random(f"{self.seed}:order:{index}").shuffle(groups)
        return groups


def op_rng(seed, key):
    return random.Random(f"{seed}:{key}")


def grid_key(nkl):
    return "({},{},{})".format(*nkl)


# ---------------------------------------------------------------- checks
def _config_ok(rp, mode, cfg, two="closed"):
    v = rp.verify
    if mode == "min_cover":
        return v.verify_covering(cfg).valid
    if mode == "max_pack":
        return v.verify_packing(cfg).valid
    return v.verify_two_packing(cfg, two).valid


def coverage_witness_failures(rp, cfg, N, claimed):
    """Max-coverage witness check done here rather than in rookpack: exactly
    N rooks on distinct points whose closed coverage has `claimed` points."""
    if cfg is None:
        return ["max_coverage: no witness"]
    fails = []
    if len(cfg.rooks) != N:
        fails.append(f"max_coverage: witness has {len(cfg.rooks)} rooks, expected {N}")
    if len({r.point for r in cfg.rooks}) != len(cfg.rooks):
        fails.append("max_coverage: witness rooks share a point")
    got = rp.core.config_coverage(cfg).popcount()
    if got != claimed:
        fails.append(f"max_coverage: witness covers {got} points, claimed {claimed}")
    return fails


def solve_result_failures(rp, mode, r, *, known=None, must_be_exact=False, N=None, two="closed"):
    fails = []
    if must_be_exact and not r.exact:
        fails.append("not proven optimal")
    if r.exact:
        if not (r.optimum == r.lower_bound == r.upper_bound):
            fails.append(f"exact result with optimum {r.optimum} and bounds {r.lower_bound}..{r.upper_bound}")
    elif r.optimum is not None or r.lower_bound > r.upper_bound:
        fails.append(f"capped result with optimum {r.optimum} and bounds {r.lower_bound}..{r.upper_bound}")
    if known is not None and not r.lower_bound <= known <= r.upper_bound:
        fails.append(f"known value {known} outside {r.lower_bound}..{r.upper_bound}")
    if must_be_exact and known is not None and r.optimum != known:
        fails.append(f"optimum {r.optimum}, known {known}")
    w = r.witness
    if mode == "max_coverage":
        fails += coverage_witness_failures(rp, w, N, r.lower_bound)
    else:
        # a covering witness attains the upper bound, a packing the lower
        claimed = r.upper_bound if mode == "min_cover" else r.lower_bound
        if w is None:
            fails.append("no witness")
        else:
            if len(w) != claimed:
                fails.append(f"witness has {len(w)} rooks, claimed {claimed}")
            if not _config_ok(rp, mode, w, two):
                fails.append("witness rejected by the verifier")
    return fails


# ---------------------------------------------------------------- solves
def solve_op(rp, mode, nkl, *, sym=False, two="closed", N=None, cap=None, known=None,
             must_be_exact=True, key=None):
    letter = {"min_cover": "a", "max_pack": "b", "max_two_pack": "c", "max_coverage": "cov"}[mode]
    if key is None:
        key = f"{letter}{grid_key(nkl)}"
        if sym:
            key += "+sym"
        if mode == "max_two_pack":
            key += f"+{two}"
        if N is not None:
            key += f"N={N}"
        if cap is not None:
            key += f"@{cap}"
    s = rp.solve

    def run(tr):
        g = rp.core.GridParams(*nkl)
        budget = s.SolverBudget(max_nodes=cap, max_seconds=FAR_SECONDS) if cap else None
        if mode == "min_cover":
            return tr.call("solve.exact_min_covering", s.exact_min_covering, g, budget, symmetry_breaking=sym)
        if mode == "max_pack":
            return tr.call("solve.exact_max_packing", s.exact_max_packing, g, budget)
        if mode == "max_two_pack":
            return tr.call("solve.exact_max_two_packing", s.exact_max_two_packing, g, two, budget)
        return tr.call("solve.exact_max_coverage", s.exact_max_coverage, g, N, budget)

    def check(r, ctx):
        fails = solve_result_failures(rp, mode, r, known=known, must_be_exact=must_be_exact, N=N, two=two)
        st = r.stats
        fp = [st.nodes, st.pruned, r.exact, r.lower_bound, r.upper_bound]
        counters = {"mode": mode, "grid": nkl, "nodes": st.nodes, "pruned": st.pruned,
                    "exact": r.exact, "lower": r.lower_bound, "upper": r.upper_bound}
        return fails, fp, counters

    return Op(key, run, check, grids=(nkl,))


def exact_solve(rp, seed):
    """Library solves that must each prove their optimum."""
    ops = [
        solve_op(rp, "min_cover", (3, 3, 2), known=7),
        solve_op(rp, "min_cover", (3, 3, 2), sym=True, known=7),
        solve_op(rp, "max_pack", (3, 3, 2), known=10),
        solve_op(rp, "max_two_pack", (3, 3, 2), two="closed", known=4),
        solve_op(rp, "max_two_pack", (3, 3, 2), two="strict", known=6),
    ]
    ops += [solve_op(rp, "max_pack", (n, 2, 1), known=2 * n - 2) for n in range(4, 11)]
    ops += [solve_op(rp, "max_coverage", (4, 2, 2), N=N, known=v) for N, v in zip(range(1, 5), (7, 12, 15, 16))]
    return Plan([[op] for op in ops], seed)


def capped_sweep(rp, seed):
    """Solves under node caps: a deep half and a wide half."""
    deep = [
        ("min_cover", (4, 3, 2), 1_000_000, {}),
        ("max_pack", (3, 3, 1), 100_000, {}),
        ("max_pack", (11, 2, 1), 60_000, {"known": 20}),
        ("max_pack", (12, 2, 1), 60_000, {"known": 22}),
        ("max_pack", (13, 2, 1), 30_000, {"known": 24}),
        ("max_pack", (14, 2, 1), 30_000, {"known": 26}),
        ("max_pack", (2, 7, 5), 20_000, {}),
        ("max_two_pack", (5, 3, 2), 100_000, {"two": "closed"}),
    ]
    wide = [
        ("min_cover", (10, 3, 2), 2_000, {}),
        ("max_pack", (6, 4, 2), 2_000, {}),
        ("max_two_pack", (6, 4, 2), 2_000, {"two": "closed"}),
        ("min_cover", (6, 4, 3), 2_000, {}),
    ]
    return Plan([[solve_op(rp, m, nkl, cap=cap, must_be_exact=False, **kw)]
                 for m, nkl, cap, kw in deep + wide], seed)


# ---------------------------------------------------------------- construct-verify
def drop_rook(rp, cfg, rng):
    """A covering with one rook removed."""
    rooks = list(cfg.rooks)
    del rooks[rng.randrange(len(rooks))]
    return rp.core.Configuration(cfg.params, rooks)


def add_attacked_rook(rp, cfg, rng):
    """A packing plus one rook on a free point that a rook attacks.

    The new rook attacks along the attacking rook's axis too, so the copy
    also breaks a strict two-packing."""
    g = cfg.params
    occupied = {r.point for r in cfg.rooks}
    for _ in range(1000):
        r = cfg.rooks[rng.randrange(len(cfg.rooks))]
        axis = sorted(r.dirs)[rng.randrange(len(r.dirs))]
        free = [v for v in range(g.n) if v != r.point[axis]
                and r.point[:axis] + (v,) + r.point[axis + 1:] not in occupied]
        if free:
            v = free[rng.randrange(len(free))]
            point = r.point[:axis] + (v,) + r.point[axis + 1:]
            dirs = [axis] + [a for a in range(g.k) if a != axis][: g.l - 1]
            return rp.core.Configuration(g, list(cfg.rooks) + [rp.core.Rook(point, dirs)])
    raise RuntimeError("no free attacked point found")


def build_op(name, build, expected_size=None, min_size=None):
    def check(cfg, ctx):
        ctx[name] = cfg
        fails = []
        if expected_size is not None and len(cfg) != expected_size:
            fails.append(f"{name}: {len(cfg)} rooks, expected {expected_size}")
        if min_size is not None and len(cfg) < min_size:
            fails.append(f"{name}: {len(cfg)} rooks, expected at least {min_size}")
        return fails, len(cfg), {"rooks": len(cfg)}

    return Op(f"build:{name}", build, check)


def verify_op(rp, name, kind, broken, seed):
    """Check configuration `name` as a `kind` (cover, pack, closed, strict),
    as built or as the seed's broken copy."""
    key = f"verify:{kind}:{name}" + (":broken" if broken else "")
    v = rp.verify

    def prepare(ctx):
        cfg = ctx[name]
        if not broken:
            return (cfg,)
        if kind == "cover":
            return (drop_rook(rp, cfg, op_rng(seed, f"{name}:cover")),)
        return (add_attacked_rook(rp, cfg, op_rng(seed, f"{name}:pack")),)

    def run(tr, cfg):
        if kind == "cover":
            rep = tr.call("verify.verify_covering", v.verify_covering, cfg)
        elif kind == "pack":
            rep = tr.call("verify.verify_packing", v.verify_packing, cfg)
        else:
            rep = tr.call("verify.verify_two_packing", v.verify_two_packing, cfg, kind)
        return rep, cfg.params.num_points

    def check(out, ctx):
        rep, points = out
        fails = []
        if broken and (rep.valid or rep.total_violations < 1 or not rep.violations):
            fails.append(f"broken copy accepted")
        if not broken and (not rep.valid or rep.total_violations):
            fails.append(f"rejected with {rep.total_violations} violations")
        counters = {"points": points, "violations": rep.total_violations if broken else 0}
        return fails, [rep.valid, rep.total_violations, len(rep.violations)], counters

    return Op(key, run, check, prepare=prepare, seeded=broken)


def encode_op(rp, nkl, mode):
    key = f"encode:{mode}{grid_key(nkl)}"

    def prepare(ctx):
        return (rp.core.GridParams(*nkl), io.StringIO())

    def run(tr, g, buf):
        summary = tr.call("solve.encode_ilp", rp.solve.encode_ilp, g, mode, buf)
        return summary, buf.getvalue()

    def check(out, ctx):
        summary, text = out
        n, k, l = nkl
        lines = text.split("\n")
        fails = []
        want_vars = n**k * math.comb(k, l)
        if summary.get("variables") != want_vars:
            fails.append(f"{summary.get('variables')} variables, expected {want_vars}")
        head = "Minimize" if mode == "min_cover" else "Maximize"
        if lines[0] != head or not text.endswith("End\n"):
            fails.append(f"malformed LP text")
        try:
            rows = lines.index("Binary") - lines.index("Subject To") - 1
        except ValueError:
            rows = -1
        if rows != summary.get("constraints") or rows < 1:
            fails.append(f"{rows} constraint rows, summary says {summary.get('constraints')}")
        size = len(text.encode())
        fp = [summary.get("variables"), summary.get("constraints"), size]
        return fails, fp, {"constraints": summary.get("constraints", 0), "bytes": size}

    return Op(key, run, check, prepare=prepare, grids=(nkl,))


def construction_groups(rp, seed, names, extra_kinds=None):
    """Build-then-verify op groups for the named configurations; a
    configuration is checked as each kind in its spec plus `extra_kinds`."""
    c = rp.constructions
    spec = {
        # name: (builder, checks, expected size or None, minimum size or None)
        "a32_covering(8,3)": (
            lambda tr: tr.call("constructions.a32_covering", c.a32_covering, 8, 3),
            ["cover"], None, None),
        "diagonal_covering(7,6)": (
            lambda tr: tr.call("constructions.diagonal_covering", c.diagonal_covering, 7, 6),
            ["cover", "pack"], 7**5, None),
        "block_packing(7,3,2)": (
            lambda tr: tr.call("constructions.block_packing", c.block_packing, 7, 3, 2),
            ["pack"], 3 * 7**3 * 6**2, None),
        "b_k2_inductive(36,4)": (
            lambda tr: tr.call("constructions.b_k2_inductive", c.b_k2_inductive, 36, 4),
            ["pack"], None, math.floor(2 * 36**3 - c.b_k2_size_constant(4) * 36**2)),
        "distance3_code(7,5)": (
            lambda tr: tr.call("constructions.distance3_code", c.distance3_code, 7, 5),
            ["closed"], 7**3, None),
        "c_k2_construction(21,5)": (
            lambda tr: tr.call("constructions.c_k2_construction", c.c_k2_construction, 21, 5),
            ["closed", "strict"], 10 * (21 - 20) ** 3, None),
        "blowup_covering(a32_covering(5,2),5)": (
            lambda tr: tr.call("constructions.blowup_covering", c.blowup_covering,
                               tr.call("constructions.a32_covering", c.a32_covering, 5, 2), 5),
            ["cover"], 25 * 140, None),
    }
    groups = []
    for name in names:
        builder, kinds, size, min_size = spec[name]
        kinds = kinds + (extra_kinds or {}).get(name, [])
        group = [build_op(name, builder, size, min_size)]
        for kind in kinds:
            group.append(verify_op(rp, name, kind, False, seed))
            group.append(verify_op(rp, name, kind, True, seed))
        groups.append(group)
    return groups


CONSTRUCT_VERIFY_CONFIGS = (
    "a32_covering(8,3)",
    "diagonal_covering(7,6)",
    "block_packing(7,3,2)",
    "b_k2_inductive(36,4)",
    "distance3_code(7,5)",
    "c_k2_construction(21,5)",
    "blowup_covering(a32_covering(5,2),5)",
)


def construct_verify(rp, seed):
    """Constructions checked by the verifiers, then the ILP encoder."""
    groups = construction_groups(rp, seed, CONSTRUCT_VERIFY_CONFIGS)
    groups += [[encode_op(rp, nkl, m)] for nkl in ((4, 4, 2), (5, 3, 2))
               for m in ("min_cover", "max_pack", "max_two_pack")]
    return Plan(groups, seed)


# ---------------------------------------------------------------- cli-cache
def cli_run(rp, tr, argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = tr.call("cli.main", rp.cli.main, argv)
    return code, out.getvalue()


def config_from_json(rp, d):
    g = rp.core.GridParams(d["n"], d["k"], d["l"])
    return rp.core.Configuration(g, [rp.core.Rook(tuple(r["point"]), r["dirs"]) for r in d["rooks"]])


def expected_optimum(rp, mode, nkl, strict, N):
    g = rp.core.GridParams(*nkl)
    s = rp.solve
    if mode == "a":
        return s.exact_min_covering(g).optimum
    if mode == "b":
        return s.exact_max_packing(g).optimum
    if mode == "c":
        return s.exact_max_two_packing(g, "strict" if strict else "closed").optimum
    return s.exact_max_coverage(g, N).optimum


def cli_solve_args(mode, nkl, strict=False, N=None, extra=()):
    argv = ["solve", mode, "--n", str(nkl[0]), "--k", str(nkl[1]), "--l", str(nkl[2])]
    if strict:
        argv.append("--strict")
    if N is not None:
        argv += ["--N", str(N)]
    return argv + list(extra)


def cli_doc_failures(rp, doc, mode, strict, N, expect):
    fails = []
    if doc.get("exact") is not True or doc.get("optimum") != expect:
        fails.append(f"optimum {doc.get('optimum')} (exact={doc.get('exact')}), library says {expect}")
    try:
        cfg = config_from_json(rp, doc["witness"])
    except (KeyError, TypeError, ValueError, rp.core.RookError) as e:
        return fails + [f"bad witness: {e}"]
    if mode == "coverage":
        fails += coverage_witness_failures(rp, cfg, N, doc.get("optimum"))
    else:
        if len(cfg) != doc.get("optimum"):
            fails.append(f"witness has {len(cfg)} rooks, optimum {doc.get('optimum')}")
        if not _config_ok(rp, MODE_OF[mode], cfg, "strict" if strict else "closed"):
            fails.append("witness rejected by the verifier")
    return fails


def cli_cold_op(rp, mode, nkl, strict, N, expected):
    argv = cli_solve_args(mode, nkl, strict, N)
    key = "cli:" + " ".join(argv[1:])

    def run(tr):
        return cli_run(rp, tr, argv)

    def check(out, ctx):
        code, text = out
        ctx.setdefault("cold", {})[key] = text
        fails = [] if code == 0 else [f"exit {code}, expected 0"]
        try:
            doc = json.loads(text)
        except ValueError:
            return fails + [f"stdout is not JSON"], None, {}
        ek = (mode, nkl, strict, N)
        if ek not in expected:
            expected[ek] = expected_optimum(rp, mode, nkl, strict, N)
        fails += cli_doc_failures(rp, doc, mode, strict, N, expected[ek])
        st = doc.get("stats", {})
        counters = {"mode": MODE_OF[mode], "grid": nkl, "nodes": st.get("nodes", 0),
                    "pruned": st.get("pruned", 0), "solver_s": st.get("wall_time", 0.0),
                    "exact": doc.get("exact"), "lower": doc.get("lower_bound"),
                    "upper": doc.get("upper_bound")}
        return fails, [st.get("nodes"), st.get("pruned"), doc.get("exact"), doc.get("optimum")], counters

    return Op(key, run, check, role="pass", grids=(nkl,))


def cli_replay_op(rp, cold_key, argv, round_):
    key = f"{cold_key}:replay{round_}"

    def run(tr):
        return cli_run(rp, tr, argv)

    def check(out, ctx):
        code, text = out
        fails = []
        if code != 0:
            fails.append(f"exit {code}, expected 0")
        if text != ctx.get("cold", {}).get(cold_key):
            fails.append(f"replay differs from the cold output")
        return fails, None, {}

    return Op(key, run, check, role="latency")


CAPPED_CLI = ("a", (4, 3, 2), ("--max-nodes", "100000"))


def cli_capped_op(rp):
    mode, nkl, extra = CAPPED_CLI
    argv = cli_solve_args(mode, nkl, extra=extra)
    key = "cli:" + " ".join(argv[1:])

    def run(tr):
        return cli_run(rp, tr, argv)

    def check(out, ctx):
        code, text = out
        fails = [] if code == 4 else [f"exit {code}, expected 4"]
        try:
            doc = json.loads(text)
            cfg = config_from_json(rp, doc["witness"])
        except (KeyError, TypeError, ValueError, rp.core.RookError) as e:
            return fails + [f"bad output: {e}"], None, {}
        lo, hi = doc.get("lower_bound"), doc.get("upper_bound")
        if doc.get("exact") is not False or not lo <= hi:
            fails.append(f"exact={doc.get('exact')} bounds {lo}..{hi}")
        if len(cfg) != hi or not rp.verify.verify_covering(cfg).valid:
            fails.append(f"witness is not a covering of size {hi}")
        if "solve_{}_{}_{}_{}.json".format(mode, *nkl) in os.listdir(ctx["cache"]):
            fails.append(f"capped result was cached")
        st = doc.get("stats", {})
        counters = {"mode": MODE_OF[mode], "grid": nkl, "nodes": st.get("nodes", 0),
                    "pruned": st.get("pruned", 0), "solver_s": st.get("wall_time", 0.0),
                    "exact": doc.get("exact"), "lower": lo, "upper": hi}
        return fails, [st.get("nodes"), st.get("pruned"), doc.get("exact"), lo, hi], counters

    return Op(key, run, check, role="other", grids=(nkl,))


def cli_file_ops(rp):
    """construct -> verify on the written file, and encode to a file."""

    def construct(tr, ctx):
        return cli_run(rp, tr, ["construct", "a32_covering", "--a", "5", "--b", "2",
                                "--out", os.path.join(ctx["dir"], "a32.json")])

    def check_construct(out, ctx):
        code, text = out
        rooks = json.loads(text).get("rooks") if code == 0 else None
        fails = [] if code == 0 and rooks == 140 else [f"construct: exit {code}, rooks {rooks}"]
        return fails, rooks, {}

    def verify(tr, ctx):
        return cli_run(rp, tr, ["verify", "cover", os.path.join(ctx["dir"], "a32.json")])

    def check_verify(out, ctx):
        code, text = out
        ok = code == 0 and json.loads(text).get("valid") is True
        return ([] if ok else [f"verify cover: exit {code}"]), code, {}

    def encode(tr, ctx):
        return cli_run(rp, tr, ["encode", "max_pack", "--n", "3", "--k", "3", "--l", "2",
                                "--out", os.path.join(ctx["dir"], "b332.lp")])

    def check_encode(out, ctx):
        code, text = out
        summary = json.loads(text) if code == 0 else {}
        size = os.path.getsize(os.path.join(ctx["dir"], "b332.lp")) if code == 0 else None
        ok = summary.get("variables") == 81 and summary.get("constraints", 0) > 0
        return ([] if ok else [f"encode: exit {code}, summary {summary}"]), [summary.get("constraints"), size], {}

    ctx_prep = lambda ctx: (ctx,)  # noqa: E731
    return [
        Op("cli:construct a32_covering 5 2", construct, check_construct, prepare=ctx_prep, role="other"),
        Op("cli:verify cover a32.json", verify, check_verify, prepare=ctx_prep, role="other"),
        Op("cli:encode max_pack (3,3,2)", encode, check_encode, prepare=ctx_prep, role="other"),
    ]


CLI_GRIDS = ((2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2), (2, 3, 2), (2, 3, 3), (3, 3, 3),
             (4, 2, 2), (5, 2, 2), (4, 2, 1))
REPLAY_ROUNDS = 2


def cache_summary(directory):
    """(files, bytes, bytes without the solver's wall-time digits)."""
    files = sorted(os.listdir(directory))
    total = fixed = 0
    for name in files:
        path = os.path.join(directory, name)
        size = os.path.getsize(path)
        total += size
        fixed += size
        if name.endswith(".json") and not name.endswith("_witness.json"):
            with open(path) as f:
                fixed -= len(repr(json.load(f)["stats"]["wall_time"]))
    return len(files), total, fixed


def cli_plan(rp, seed, work, commands):
    """Cold solves into an empty cache, seeded-order warm replays, a capped
    rerun and the file commands; each pass starts from a fresh cache."""
    expected = {}
    cold = [cli_cold_op(rp, *spec, expected) for spec in commands]
    replays = []
    for r in range(REPLAY_ROUNDS):
        replays += [cli_replay_op(rp, op.key, cli_solve_args(*spec[:2], spec[2], spec[3]), r)
                    for op, spec in zip(cold, commands)]
    rest = [cli_capped_op(rp)] + cli_file_ops(rp)

    def begin_pass(i, ctx):
        ctx["dir"] = os.path.join(work, f"pass-{i}")
        ctx["cache"] = os.path.join(ctx["dir"], "cache")
        os.makedirs(ctx["cache"])
        os.environ["ROOKPACK_CACHE"] = ctx["cache"]

    def end_pass(i, ctx):
        files, total, fixed = cache_summary(ctx["cache"])
        shutil.rmtree(ctx["dir"])
        return {"cache_files": files, "cache_bytes": total, "cache_bytes_fixed": fixed}

    class CliPlan(Plan):
        def pass_groups(self, index):
            rng = random.Random(f"{self.seed}:order:{index}")
            c, rep = list(cold), list(replays)
            rng.shuffle(c)
            rng.shuffle(rep)
            return [c + rep + rest]

    return CliPlan([cold + replays + rest], seed, begin_pass, end_pass)


def cli_cache(rp, seed, work):
    commands = []
    for nkl in CLI_GRIDS:
        commands += [("a", nkl, False, None), ("b", nkl, False, None)]
        if nkl[2] >= 2:
            commands += [("c", nkl, False, None), ("c", nkl, True, None)]
    commands += [("coverage", (3, 2, 2), False, N) for N in range(1, 5)]
    return cli_plan(rp, seed, work, commands)


# ---------------------------------------------------------------- layer probe
def mask_op(rp, name):
    """coverage_mask and attack_mask of every rook of a built configuration."""
    core = rp.core

    def prepare(ctx):
        return (ctx[name],)

    def run(tr, cfg):
        g = cfg.params
        total = 0
        for r in cfg.rooks:
            total += tr.call("core.coverage_mask", core.coverage_mask, r, g).bit_count()
            total -= tr.call("core.attack_mask", core.attack_mask, r, g).bit_count()
        return total, len(cfg.rooks)

    def check(out, ctx):
        total, rooks = out
        fails = [] if total == rooks else [f"masks:{name}: own points counted {total}, rooks {rooks}"]
        return fails, total, {"masks": 2 * rooks}

    return Op(f"masks:{name}", run, check, prepare=prepare)


def config_coverage_op(rp, name, kind):
    def prepare(ctx):
        return (ctx[name],)

    def run(tr, cfg):
        return tr.call("core.config_coverage", rp.core.config_coverage, cfg).popcount(), cfg

    def check(out, ctx):
        covered, cfg = out
        g = cfg.params
        if kind == "cover":
            ok = covered == g.num_points
        else:
            ok = covered == len(cfg) * g.ball  # disjoint closed coverage
        return ([] if ok else [f"config_coverage:{name}: {covered} points"]), covered, {}

    return Op(f"config_coverage:{name}", run, check, prepare=prepare)


def table_op(rp, nkl):
    """The placement table alone, built the way every solve builds it."""

    def run(tr):
        return tr.call("solve._Instance", rp.solve._Instance, rp.core.GridParams(*nkl))

    def check(inst, ctx):
        n, k, l = nkl
        want = n**k * math.comb(k, l)
        got = len(inst.placements)
        return ([] if got == want else [f"table{grid_key(nkl)}: {got} placements"]), got, {"placements": got}

    return Op(f"table:{grid_key(nkl)}", run, check)


def bounds_op(rp, nkl):
    def run(tr):
        return tr.call("bounds.bound_report", rp.bounds.bound_report, rp.core.GridParams(*nkl))

    def check(rep, ctx):
        fails = [] if rep.a_lower <= rep.a_upper else [f"bounds{grid_key(nkl)}: a_lower > a_upper"]
        c_upper = math.floor(rep.c_upper) if rep.c_upper is not None else None
        counters = {"a_lower": rep.a_lower, "a_upper": rep.a_upper,
                    "b_upper": math.floor(rep.b_upper), "c_upper": c_upper}
        return fails, [rep.a_lower, rep.a_upper, counters["b_upper"], c_upper], counters

    return Op(f"bounds:{grid_key(nkl)}", run, check)


PROBE_CONFIGS = ("a32_covering(8,3)", "distance3_code(7,5)", "c_k2_construction(21,5)")


def probe(rp, seed, work):
    """A fixed, small set of calls that touches every layer, run once in
    each traced run so that every per-layer metric is measured whatever
    the workload."""
    groups = construction_groups(rp, seed, PROBE_CONFIGS, {"distance3_code(7,5)": ["pack"]})
    groups[0] += [mask_op(rp, PROBE_CONFIGS[0]), config_coverage_op(rp, PROBE_CONFIGS[0], "cover")]
    for g, name in zip(groups[1:], PROBE_CONFIGS[1:]):
        g += [mask_op(rp, name), config_coverage_op(rp, name, "closed")]
    solves = [
        solve_op(rp, "min_cover", (3, 3, 2), sym=True, known=7),
        solve_op(rp, "max_pack", (6, 2, 1), known=10),
        solve_op(rp, "max_two_pack", (3, 3, 2), two="closed", known=4),
        solve_op(rp, "max_coverage", (4, 2, 2), N=1, known=7),
        solve_op(rp, "max_coverage", (4, 2, 2), N=4, known=16),
    ]
    encodes = [encode_op(rp, (5, 3, 2), m) for m in ("min_cover", "max_pack", "max_two_pack")]
    cli = cli_plan(rp, seed, work, [("b", (4, 2, 1), False, None)])
    return groups + [[op] for op in solves + encodes], cli


WORKLOADS = {
    "exact-solve": lambda rp, seed, work: exact_solve(rp, seed),
    "capped-sweep": lambda rp, seed, work: capped_sweep(rp, seed),
    "construct-verify": lambda rp, seed, work: construct_verify(rp, seed),
    "cli-cache": cli_cache,
}
