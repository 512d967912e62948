"""rookpack benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; rookpack is imported from its `src`
directory and from nowhere else. One closed-loop caller runs passes of the
workload in this process until --seconds have passed (at least one pass),
checks every output outside the timed intervals, and prints a report, a
deterministic fingerprint and, as the last line, one JSON object. With
--trace 0 that object holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of a traced run, whose passes alternate with
untraced ones to measure the tracing overhead. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import harness  # noqa: E402
import workloads  # noqa: E402

MODULES = ("core", "verify", "bounds", "constructions", "solve", "cli")
SETUP_REPEATS = 15
CAL_SAMPLES = 2
SEARCH_MODES = ("min_cover", "max_pack", "max_two_pack", "max_coverage")
SEARCH_CALLS = {
    "min_cover": "solve.exact_min_covering",
    "max_pack": "solve.exact_max_packing",
    "max_two_pack": "solve.exact_max_two_packing",
    "max_coverage": "solve.exact_max_coverage",
}
# the per-workload names of pass_s and op_ms, printed in the report
PASS_NAME = {"exact-solve": "solve_s", "capped-sweep": "sweep_s",
             "construct-verify": "construct_verify_s", "cli-cache": "cold_solve_s"}
OP_KIND = {"exact-solve": "solves", "capped-sweep": "capped solves",
           "construct-verify": "builds, checks and encodes", "cli-cache": "warm replays"}


def calibrate():
    """Calibration samples taken right after a timed operation, which is
    scaled by their median."""
    return [harness.calibration_sample() for _ in range(CAL_SAMPLES)]


class MissingProgram(Exception):
    pass


def load_rookpack(src):
    """Import every rookpack module afresh from `src`."""
    if not os.path.isfile(os.path.join(src, "rookpack", "__init__.py")):
        raise MissingProgram(f"no rookpack package under {src}")
    for name in [m for m in sys.modules if m == "rookpack" or m.startswith("rookpack.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    importlib.invalidate_caches()
    mods = {m: importlib.import_module(f"rookpack.{m}") for m in MODULES}
    pkg = sys.modules["rookpack"]
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(src, "rookpack"):
        raise MissingProgram(f"rookpack was imported from {pkg.__file__}, not {src}")
    return SimpleNamespace(**mods)


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


class Run:
    """Executes ops, times them, checks them and keeps the records."""

    def __init__(self):
        self.records = []  # dicts: pass, key, role, dt, factor, counters, traced
        self.failures = []
        self.attempted = 0
        self.fingerprint = {}
        self.probe_fingerprint = {}  # kept apart so traced and untraced runs print the same
        self.seeded_keys = set()
        self.pass_extras = []

    def run_ops(self, ops, label, ctx, tracer):
        prints = self.fingerprint if isinstance(label, int) else self.probe_fingerprint
        for op in ops:
            self.attempted += 1
            tracer.begin_op((label, op.key))
            try:
                args = op.prepare(ctx)
                t0 = time.perf_counter()
                result = op.run(tracer, *args)
                dt = time.perf_counter() - t0
            except Exception:
                tracer.end_op()
                self._fail(op.key, [f"raised {traceback.format_exc(limit=3)}"])
                continue
            tracer.end_op()
            factor = harness.speed_factor(calibrate())
            try:
                fails, fp, counters = op.check(result, ctx)
            except Exception:
                fails, fp, counters = [f"check raised {traceback.format_exc(limit=3)}"], None, {}
            if fp is not None:
                fails += self._note_fingerprint(prints, op.key, fp, op.seeded)
            self.records.append({"pass": label, "key": op.key, "role": op.role, "dt": dt,
                                 "factor": factor, "counters": counters, "traced": tracer.enabled})
            if fails:
                self._fail(op.key, fails)

    def _note_fingerprint(self, prints, key, fp, seeded):
        if seeded:
            self.seeded_keys.add(key)
        if key not in prints:
            prints[key] = fp
            return []
        if prints[key] != fp:
            return [f"fingerprint changed between passes: {prints[key]} -> {fp}"]
        return []

    def _fail(self, key, fails):
        self.failures.append((key, fails))

    def run_groups(self, groups, label, ctx, tracer):
        for group in groups:
            before = set(ctx)
            self.run_ops(group, label, ctx, tracer)
            for key in set(ctx) - before:
                del ctx[key]

    def run_pass(self, plan, index, tracer):
        # every pass starts from the same collector state; the collections
        # that the pass's own allocations trigger stay in the timed calls
        gc.collect()
        ctx = {}
        plan.begin_pass(index, ctx)
        self.run_groups(plan.pass_groups(index), index, ctx, tracer)
        extra = plan.end_pass(index, ctx)
        if extra:
            self.pass_extras.append(extra)
            fixed = [extra["cache_files"], extra["cache_bytes_fixed"]]
            fails = self._note_fingerprint(self.fingerprint, "cache", fixed, False)
            if fails:
                self._fail("cache", fails)

    def scaled(self, rec):
        return rec["dt"] * rec["factor"]


def per_key_median(run, records):
    by_key = defaultdict(list)
    for rec in records:
        by_key[rec["key"]].append(run.scaled(rec))
    return {k: harness.median(v) for k, v in by_key.items()}


def pass_seconds(run, records, roles):
    """Sum over the pass's ops of each op's median scaled time."""
    return sum(per_key_median(run, [r for r in records if r["role"] in roles]).values())


def end_to_end(run, workload, setup, passes):
    records = [r for r in run.records if not r["traced"]]
    pass_roles = ("pass", "both")
    latency = per_key_median(run, [r for r in records if r["role"] in ("latency", "both")])
    raw_pass = sum(harness.median([r["dt"] for r in records if r["key"] == k])
                   for k in {r["key"] for r in records if r["role"] in pass_roles})
    metrics = {
        "setup_s": (harness.median(setup), "s"),
        "pass_s": (pass_seconds(run, records, pass_roles), "s"),
        "op_ms": (harness.geomean(list(latency.values())) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"pass_s is {PASS_NAME[workload]} here: {metrics['pass_s'][0]:.4f} s scaled, "
        f"{raw_pass:.4f} s raw, median over {passes} passes",
        f"op_ms: geometric mean over {len(latency)} {OP_KIND[workload]} of each one's median latency",
        f"setup_s: median of {len(setup)} set-ups (fresh rookpack import + input generation)",
    ]
    if workload == "cli-cache":
        samples = [run.scaled(r) * 1000 for r in records if r["role"] == "latency"]
        tail, pct, n = harness.tail(samples)
        notes.append(f"replay_ms = {harness.median(samples):.4f} ms median, replay_ms_tail = "
                     f"{tail:.4f} ms at p{pct:.2f}, {n} samples (10 beyond the tail)")
    return metrics, notes


def search_stats(run, traced):
    """Distinct solve ops (library or CLI) with their counters and the
    median scaled time of the solver call."""
    spans = span_medians(run, traced)
    out = {}
    for rec in run.records:
        c = rec["counters"]
        if "mode" not in c or rec["key"] in out or not rec["traced"]:
            continue
        if "solver_s" in c:  # a CLI solve: the solver reports its own time
            times = [r["counters"]["solver_s"] * r["factor"] for r in run.records
                     if r["key"] == rec["key"] and r["traced"]]
            t = harness.median(times)
        else:
            t = spans.get((rec["key"], SEARCH_CALLS[c["mode"]]), 0.0)
        out[rec["key"]] = dict(c, time=t)
    return out


def span_medians(run, tracer):
    """Median over passes of each op's scaled self time in each span name."""
    factor = {(r["pass"], r["key"]): r["factor"] for r in run.records}
    per = defaultdict(float)
    for span, st in zip(tracer.spans, tracer.self_times()):
        if span.name == "op" or span.op not in factor:
            continue
        label, key = span.op
        per[(label, key, span.name)] += st * factor[span.op]
    by = defaultdict(list)
    for (label, key, name), t in per.items():
        by[(key, name)].append(t)
    return {k: harness.median(v) for k, v in by.items()}


def per_layer(run, tracer, workload):
    T = span_medians(run, tracer)
    recs = [r for r in run.records if r["traced"]]
    first = {}
    for r in recs:
        first.setdefault(r["key"], r["counters"])

    def total(pred_name, keys=None):
        return sum(t for (k, name), t in T.items() if pred_name(name) and (keys is None or k in keys))

    m = {}
    tables = {k: c for k, c in first.items() if k.startswith("table:")}
    build = {k[len("table:"):]: T.get((k, "solve._Instance"), 0.0) for k in tables}
    m["solve.instance_build_s"] = (sum(build.values()), "s")
    m["solve.placements"] = (sum(c["placements"] for c in tables.values()), "count")

    solves = search_stats(run, tracer)
    for mode in SEARCH_MODES:
        mine = [c for c in solves.values() if c["mode"] == mode]
        nodes = sum(c["nodes"] for c in mine)
        pruned = sum(c["pruned"] for c in mine)
        search = sum(max(c["time"] - build.get(workloads.grid_key(c["grid"]), 0.0), 0.0) for c in mine)
        m[f"solve.{mode}.nodes"] = (nodes, "count")
        m[f"solve.{mode}.pruned"] = (pruned, "count")
        m[f"solve.{mode}.prune_ratio"] = (pruned / nodes if nodes else 0.0, "ratio")
        m[f"solve.{mode}.search_s"] = (search, "s")
        m[f"solve.{mode}.nodes_per_s"] = (nodes / search if search > 0 else 0.0, "1/s")
    exact = sum(1 for c in solves.values() if c["exact"])
    m["solve.exact_ratio"] = (exact / len(solves) if solves else 0.0, "ratio")
    m["solve.exact_count"] = (exact, "count")
    m["solve.gap_sum"] = (sum(c["upper"] - c["lower"] for c in solves.values()), "rooks")

    enc = {k: c for k, c in first.items() if k.startswith("encode:")}
    m["solve.encode_s"] = (total(lambda n: n == "solve.encode_ilp"), "s")
    m["solve.encode_bytes"] = (sum(c["bytes"] for c in enc.values()), "B")
    m["solve.encode_constraints"] = (sum(c["constraints"] for c in enc.values()), "count")

    m["bounds.report_s"] = (total(lambda n: n == "bounds.bound_report"), "s")
    gap = 0
    for c in solves.values():
        rep = first.get("bounds:" + workloads.grid_key(c["grid"]))
        if rep is None or c["mode"] == "max_coverage":
            continue
        if c["mode"] == "min_cover":
            gap += c["upper"] - rep["a_lower"]
        elif c["mode"] == "max_pack":
            gap += rep["b_upper"] - c["lower"]
        elif rep["c_upper"] is not None:
            gap += rep["c_upper"] - c["lower"]
    m["bounds.gap_sum"] = (gap, "rooks")

    mask_s = total(lambda n: n in ("core.coverage_mask", "core.attack_mask"))
    masks = sum(c["masks"] for k, c in first.items() if k.startswith("masks:"))
    m["core.mask_s"] = (mask_s, "s")
    m["core.masks_per_s"] = (masks / mask_s if mask_s > 0 else 0.0, "1/s")
    m["core.config_coverage_s"] = (total(lambda n: n == "core.config_coverage"), "s")

    verify_keys = {k for k in first if k.startswith("verify:")}
    for name, call in (("covering", "verify_covering"), ("packing", "verify_packing"),
                       ("two_packing", "verify_two_packing")):
        m[f"verify.{name}_s"] = (total(lambda n, c=call: n == f"verify.{c}"), "s")
    vtime = total(lambda n: n.startswith("verify."), verify_keys)
    points = sum(first[k]["points"] for k in verify_keys)
    m["verify.points_per_s"] = (points / vtime if vtime > 0 else 0.0, "1/s")
    m["verify.violations"] = (sum(first[k]["violations"] for k in verify_keys), "count")

    m["constructions.build_s"] = (total(lambda n: n.startswith("constructions.")), "s")
    m["constructions.rooks"] = (sum(c["rooks"] for k, c in first.items() if k.startswith("build:")), "count")

    over = [(r["dt"] - r["counters"]["solver_s"]) * r["factor"] * 1000
            for r in recs if r["role"] == "pass" and "solver_s" in r["counters"]]
    m["cli.overhead_ms"] = (harness.median(over), "ms")
    replays = [run.scaled(r) * 1000 for r in recs if r["role"] == "latency"]
    m["cli.replay_ms"] = (harness.median(replays), "ms")
    m["cli.cache_files"] = (max(e["cache_files"] for e in run.pass_extras), "count")
    m["cli.cache_bytes"] = (max(e["cache_bytes"] for e in run.pass_extras), "B")

    for mod in MODULES:
        m[f"{mod}.self_s"] = (total(lambda n, p=mod + ".": n.startswith(p)), "s")

    roles = ("pass", "both")
    traced = [pass_seconds(run, [r for r in run.records if r["pass"] == p], roles)
              for p in sorted({r["pass"] for r in run.records if r["traced"] and isinstance(r["pass"], int)})]
    plain = [pass_seconds(run, [r for r in run.records if r["pass"] == p], roles)
             for p in sorted({r["pass"] for r in run.records if not r["traced"]})]
    m["trace.overhead_ratio"] = (harness.median(traced) / harness.median(plain) - 1, "ratio")
    m["trace.spans"] = (sum(1 for s in tracer.spans if s.name != "op"), "count")
    return m


def fingerprint_lines(run, workload, seed):
    fixed = {k: v for k, v in sorted(run.fingerprint.items()) if k not in run.seeded_keys}
    seeded = {k: v for k, v in sorted(run.fingerprint.items()) if k in run.seeded_keys}
    digest = lambda d: hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()[:16]  # noqa: E731
    doc = {"workload": workload, "seed": seed, "fixed": fixed, "seeded": seeded}
    return [f"fingerprint fixed={digest(fixed)} seeded={digest(seeded)}",
            "fingerprint-json " + json.dumps(doc, sort_keys=True)]


def summary_lines(run, workload):
    """Per-workload counts read off the passes: exact_count and gap_sum,
    nodes per pass, the cache after a pass."""
    lines = []
    solves = {}
    for r in run.records:
        if "mode" in r["counters"] and isinstance(r["pass"], int):
            solves.setdefault(r["key"], r["counters"])
    if workload == "capped-sweep":
        exact = sum(1 for c in solves.values() if c["exact"])
        gap = sum(c["upper"] - c["lower"] for c in solves.values())
        lines.append(f"exact_count = {exact} of {len(solves)} solves; gap_sum = {gap} rooks")
    if solves:
        lines.append(f"nodes per pass = {sum(c['nodes'] for c in solves.values())}")
    if run.pass_extras:
        e = run.pass_extras[-1]
        lines.append(f"cache after a pass: {e['cache_files']} files, {e['cache_bytes']} bytes")
    return lines


def write_spans(tracer, workload, seed):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w") as f:
        for s in tracer.spans:
            f.write(json.dumps(s.as_dict()) + "\n")
    return path


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    saved_env = os.environ.get("ROOKPACK_CACHE")
    try:
        return bench(args, src, work)
    except MissingProgram as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if saved_env is None:
            os.environ.pop("ROOKPACK_CACHE", None)
        else:
            os.environ["ROOKPACK_CACHE"] = saved_env


def bench(args, src, work) -> int:
    name, seed = args.workload, args.seed
    make = workloads.WORKLOADS[name]
    setup_raw, setup = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        rp = load_rookpack(src)
        plan = make(rp, seed, work)
        dt = time.perf_counter() - t0
        setup_raw.append(dt)
        setup.append(dt * harness.speed_factor(calibrate()))

    run = Run()
    tracer = harness.Tracer() if args.trace else harness.NullTracer()
    if args.trace:
        probe_groups, probe_cli = workloads.probe(rp, seed, work)
        gc.collect()
        ctx = {}
        run.run_groups(probe_groups, "probe", ctx, tracer)
        probe_cli.begin_pass("probe", ctx)
        run.run_groups(probe_cli.pass_groups(0), "probe", ctx, tracer)
        run.pass_extras.append(probe_cli.end_pass("probe", ctx))
        probe_ops = [op for group in probe_groups for op in group]
        grids = sorted({g for op in probe_ops + probe_cli.ops + plan.ops for g in op.grids})
        extras = [workloads.table_op(rp, g) for g in grids] + [workloads.bounds_op(rp, g) for g in grids]
        for i in range(3):
            run.run_ops(extras, f"probe-{i}", {}, tracer)

    start = time.perf_counter()
    passes = 0
    null = harness.NullTracer()
    while passes < (2 if args.trace else 1) or time.perf_counter() - start < args.seconds:
        run.run_pass(plan, passes, tracer if args.trace and passes % 2 else null)
        passes += 1
    measured = time.perf_counter() - start

    info = machine()
    print(f"perfbench workload={name} seed={seed} trace={args.trace} passes={passes} "
          f"measured={measured:.2f}s")
    print("machine " + json.dumps(info, sort_keys=True))
    if args.trace:
        metrics = per_layer(run, tracer, name)
        print(f"spans written to {os.path.relpath(write_spans(tracer, name, seed), ROOT)}")
    else:
        metrics, notes = end_to_end(run, name, setup, passes)
        for line in notes:
            print("  " + line)
        print(f"  setup raw median {harness.median(setup_raw):.4f} s")
    for line in summary_lines(run, name):
        print("  " + line)
    for key, val in metrics.items():
        print(f"  {key} = {val[0]:.6g} {val[1]}")
    failed_ops = len(run.failures)
    print(f"  failed_ratio = {failed_ops}/{run.attempted} = {failed_ops / run.attempted:.6g} "
          f"(failed operations / operations attempted)")
    for key, fails in run.failures[:20]:
        print(f"  FAILED {key}: {'; '.join(fails)}")
    for line in fingerprint_lines(run, name, seed):
        print(line)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
