"""Benchmark of the whitewhale CLI: end-to-end times and traced per-layer numbers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gen6 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Every workload drives ``whitewhale.cli.main`` in this process with
``--threads`` left at 1, checks every output against reference digests
taken at the seed commit, and prints one JSON object as the last line of
standard output.  ``--trace 0`` repeats the timed operation until
``--seconds`` have passed (at least once) and reports end-to-end medians.
``--trace 1`` runs the operation once untraced and once traced (see
spans.py) and reports per-layer numbers; the span file and a per-layer
table go to perfbench/out/<workload>/.

The inputs are exhaustive enumerations fixed by d and the max layer, so
``--seed`` is accepted and recorded but changes no input.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)
import spans  # noqa: E402  (perfbench/spans.py)

# kind, d and max layer (None: every layer up to the halfway layer).
WORKLOADS = {
    "gen6": ("generate", 6, None),
    "gen7_head": ("generate", 7, 20),
    "analytics5": ("analytics", 5, None),
}
# The same three workloads at d=4, for --smoke.
SMOKE_WORKLOADS = {
    "gen6": ("generate", 4, None),
    "gen7_head": ("generate", 4, 5),
    "analytics5": ("analytics", 4, None),
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "orbits_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "lp.vertex_feasible.calls.feasible": "count",
    "lp.vertex_feasible.calls.infeasible": "count",
    "lp.vertex_feasible.busy_s.feasible": "s",
    "lp.vertex_feasible.busy_s.infeasible": "s",
    "lp.vertex_feasible.us_per_call.feasible": "us",
    "lp.vertex_feasible.us_per_call.infeasible": "us",
    "lp.signed_rows.busy_s": "s",
    "lp.feasibility.busy_s": "s",
    "lp.wall_share": "ratio",
    "engine.expand_layer.calls": "count",
    "engine.expand_layer.self_s": "s",
    "engine.expand_layer.max_s": "s",
    "engine.candidates": "count",
    "engine.lp_calls": "count",
    "engine.lp_yield": "ratio",
    "comb.filter_sorted_extension.calls": "count",
    "comb.filter_sorted_extension.rejects": "count",
    "comb.canonicalize.calls": "count",
    "comb.canonicalize.busy_s": "s",
    "core.point_of.calls": "count",
    "core.point_of.busy_s": "s",
    "analytics.degree_below.calls": "count",
    "analytics.degree_below.busy_s": "s",
    "analytics.degree_below.self_s": "s",
    "analytics.degree_above.calls": "count",
    "analytics.degree_above.busy_s": "s",
    "analytics.degree_above.self_s": "s",
    "analytics.count_edges.busy_s": "s",
    "analytics.layer_degrees.busy_s": "s",
    "analytics.lp_calls": "count",
    "layerfile.write_layer.calls": "count",
    "layerfile.write_layer.busy_s": "s",
    "layerfile.write_layer.bytes": "bytes",
    "layerfile.read_layer.calls": "count",
    "layerfile.read_layer.busy_s": "s",
    "layerfile.read_layer.bytes": "bytes",
    "cli.self_s": "s",
    "edges_s": "s",
    "degrees_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

PROGRESS_RE = re.compile(r"^layer (\d+): (\d+) entries, (\d+) candidates, (\d+) LP calls", re.M)


class SetupError(Exception):
    """The checkout cannot run the benchmark (no program, or set-up output is wrong)."""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def source_digest() -> str:
    """Digest of the program's sources, so stored counts only compare like with like."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "whitewhale")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def import_program():
    if not os.path.isfile(os.path.join(SRC, "whitewhale", "cli.py")):
        raise SetupError(f"no whitewhale sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    importlib.import_module("whitewhale.cli")  # imports every module the tracer wraps
    return sys.modules["whitewhale"]


def cold_import_s(repeats: int = 9) -> float:
    """Median wall time of a fresh interpreter importing the CLI: the fixed cost of
    every whitewhale invocation, and where import-time precomputation would show."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import whitewhale.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Workload:
    """One workload: set-up, the timed operation, and the output checks."""

    def __init__(self, name, kind, d, max_layer, package, reference, work):
        self.name, self.kind, self.d, self.max_layer = name, kind, d, max_layer
        self.pkg = package
        self.ref = reference[str(d)]
        self.work = work
        self.top = (1 << (d - 1)) - 1
        self.k_last = self.top if max_layer is None else max_layer
        self.layers_dir = os.path.join(work, "layers")
        self.n_ops = 0

    # -- set-up ------------------------------------------------------------

    def setup(self, repeats: int = 3) -> float:
        """Returns the set-up seconds: the median cold import, plus for analytics
        the median time to generate the layers it reads (generated `repeats` times)."""
        t = cold_import_s()
        if self.kind == "analytics":
            times = []
            for _ in range(repeats):
                shutil.rmtree(self.layers_dir, ignore_errors=True)
                t0 = time.perf_counter()
                rc, _, err = self.cli(["generate", "-d", str(self.d), "--quiet",
                                       "--layers-dir", self.layers_dir])
                times.append(time.perf_counter() - t0)
                problems = [] if rc == 0 else [f"exit code {rc}: {err.strip()}"]
                problems += self.check_layers(self.layers_dir, self.top)
                if problems:
                    raise SetupError("set-up layers are wrong: " + "; ".join(problems))
            t += statistics.median(times)
        return t

    # -- one timed operation ----------------------------------------------

    def cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.pkg.cli.main(argv)
            except Exception:  # a crash is a failed operation, not a failed benchmark
                traceback.print_exc()
                rc = -1
        return rc, out.getvalue(), err.getvalue()

    def operation(self, progress: bool):
        """Run the timed operation once. Returns (wall, cpu, parts, orbits,
        problems, stderr); problems is empty when every output checked out."""
        self.n_ops += 1
        parts = {}
        problems = []
        stderr = []
        t0, c0 = time.perf_counter(), time.process_time()
        if self.kind == "generate":
            out_dir = os.path.join(self.work, f"op{self.n_ops}")
            argv = ["generate", "-d", str(self.d), "--layers-dir", out_dir]
            if self.max_layer is not None:
                argv += ["--max-layer", str(self.max_layer)]
            if not progress:
                argv.append("--quiet")
            rc, _, err = self.cli(argv)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            stderr.append(err)
            if rc != 0:
                problems.append(f"generate exit code {rc}: {err.strip()[-300:]}")
            problems += self.check_layers(out_dir, self.k_last)
            orbits = sum(self.ref["layers"][str(k)][0] for k in range(self.k_last + 1))
            shutil.rmtree(out_dir, ignore_errors=True)
        else:
            for name in ("edges", "degrees"):
                path = os.path.join(self.layers_dir, f"{name}_d{self.d}.csv")
                if os.path.exists(path):
                    os.remove(path)
            outs = {}
            for name in ("edges", "degrees"):
                tp = time.perf_counter()
                rc, outs[name], err = self.cli([name, "-d", str(self.d), "--layers-dir", self.layers_dir])
                parts[f"{name}_s"] = time.perf_counter() - tp
                stderr.append(err)
                if rc != 0:
                    problems.append(f"{name} exit code {rc}: {err.strip()[-300:]}")
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if f"e({self.d}) = {self.ref['e']}" not in outs["edges"]:
                problems.append(f"edges printed {outs['edges'].strip()!r}, expected e({self.d}) = {self.ref['e']}")
            problems += self.check_analytics()
            orbits = 2 * sum(n for n, _ in self.ref["layers"].values()) - 1
        return wall, cpu, parts, orbits, problems, "".join(stderr)

    # -- output checks -----------------------------------------------------

    def check_layers(self, layers_dir, k_last):
        problems = []
        for k in range(k_last + 1):
            path = os.path.join(layers_dir, f"layer_d{self.d}_k{k}.www")
            n, digest = self.ref["layers"][str(k)]
            if not os.path.exists(path):
                problems.append(f"missing {os.path.basename(path)}")
                continue
            with open(path) as fh:
                header = fh.readline()
            if f" n={n} " not in header or sha256_file(path) != digest:
                problems.append(f"layer k={k} differs from the reference ({header.strip()})")
        if k_last == self.top:
            try:
                with open(os.path.join(layers_dir, "summary.json")) as fh:
                    summary = json.load(fh)
            except (OSError, ValueError) as exc:
                problems.append(f"summary.json unreadable: {exc}")
            else:
                if (summary.get("a"), summary.get("o")) != (self.ref["a"], self.ref["o"]):
                    problems.append(f"summary a={summary.get('a')} o={summary.get('o')}, "
                                    f"expected a={self.ref['a']} o={self.ref['o']}")
        return problems

    def check_analytics(self):
        problems = []
        for name in ("edges", "degrees"):
            path = os.path.join(self.layers_dir, f"{name}_d{self.d}.csv")
            if not os.path.exists(path):
                problems.append(f"missing {os.path.basename(path)}")
            elif sha256_file(path) != self.ref[f"{name}_csv"]:
                problems.append(f"{os.path.basename(path)} differs from the reference")
        path = os.path.join(self.layers_dir, f"degrees_d{self.d}.csv")
        if os.path.exists(path):
            with open(path) as fh:
                lines = fh.read().splitlines()[1:]
            weighted = sum(int(row.split(",")[2]) * int(row.split(",")[5]) for row in lines)
            if weighted != 2 * self.ref["e"]:
                problems.append(f"sum of orbit*degree is {weighted}, expected 2*e = {2 * self.ref['e']}")
        return problems


def run_untraced(wl: Workload, seconds: float):
    walls, cpus, rates = [], [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        wall, cpu, _, orbits, problems, _ = wl.operation(progress=False)
        attempted += 1
        if problems:
            failed += 1
            log(f"{wl.name}: operation {attempted} FAILED: " + "; ".join(problems))
        walls.append(wall)
        cpus.append(cpu)
        rates.append(orbits / wall)
        if time.perf_counter() - t_start >= seconds:
            break
    log(f"{wl.name}: {attempted} operations, wall_s " + " ".join(f"{w:.3f}" for w in walls))
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "orbits_per_s": statistics.median(rates),
    }
    return metrics, attempted, failed


def run_traced(wl: Workload, seed: int):
    """One untraced and one traced operation; per-layer metrics, span file, table."""
    base_wall, _, parts, _, problems0, _ = wl.operation(progress=False)
    tracer = spans.Tracer(wl.pkg)
    tracer.install()
    try:
        wall, _, _, _, problems1, progress = wl.operation(progress=True)
    finally:
        tracer.uninstall()
    failed = sum(1 for p in (problems0, problems1) if p)
    for p in (problems0, problems1):
        if p:
            log(f"{wl.name}: traced run FAILED: " + "; ".join(p))

    a = spans.Analysis(tracer.spans)
    lp_calls, lp_busy = a.lp_verdicts()
    engine_lp, _ = a.lp_verdicts(parent_names={"engine.expand_layer"})
    analytics_lp, _ = a.lp_verdicts(parent_names={"analytics.degree_below", "analytics.degree_above"})
    progress_rows = [tuple(map(int, m)) for m in PROGRESS_RE.findall(progress)]
    candidates = sum(r[2] for r in progress_rows)
    engine_lp_calls = sum(r[3] for r in progress_rows)
    module_self = a.module_self_s()
    lp_wall = module_self.get("lp", 0.0)

    def per_call(verdict):
        return 1e6 * lp_busy[verdict] / lp_calls[verdict] if lp_calls[verdict] else 0.0

    m = {
        "lp.vertex_feasible.calls.feasible": lp_calls[True],
        "lp.vertex_feasible.calls.infeasible": lp_calls[False],
        "lp.vertex_feasible.busy_s.feasible": lp_busy[True],
        "lp.vertex_feasible.busy_s.infeasible": lp_busy[False],
        "lp.vertex_feasible.us_per_call.feasible": per_call(True),
        "lp.vertex_feasible.us_per_call.infeasible": per_call(False),
        "lp.signed_rows.busy_s": a.busy_s("lp.signed_rows"),
        "lp.feasibility.busy_s": a.busy_s("lp.feasibility"),
        "lp.wall_share": lp_wall / wall,
        "engine.expand_layer.calls": a.calls["engine.expand_layer"],
        "engine.expand_layer.self_s": a.self_s("engine.expand_layer"),
        "engine.expand_layer.max_s": a.max_ns["engine.expand_layer"] / 1e9,
        "engine.candidates": candidates,
        "engine.lp_calls": engine_lp_calls,
        "engine.lp_yield": engine_lp[True] / engine_lp_calls if engine_lp_calls else 0.0,
        "comb.filter_sorted_extension.calls": tracer.sorted_ext_calls,
        "comb.filter_sorted_extension.rejects": tracer.sorted_ext_rejects,
        "comb.canonicalize.calls": a.calls["comb.canonicalize"],
        "comb.canonicalize.busy_s": a.busy_s("comb.canonicalize"),
        "core.point_of.calls": a.calls["core.point_of"],
        "core.point_of.busy_s": a.busy_s("core.point_of"),
        "analytics.lp_calls": analytics_lp[True] + analytics_lp[False],
        "analytics.count_edges.busy_s": a.busy_s("analytics.count_edges"),
        "analytics.layer_degrees.busy_s": a.busy_s("analytics.layer_degrees"),
        "layerfile.write_layer.calls": a.calls["layerfile.write_layer"],
        "layerfile.write_layer.busy_s": a.busy_s("layerfile.write_layer"),
        "layerfile.write_layer.bytes": a.tag_sum("layerfile.write_layer"),
        "layerfile.read_layer.calls": a.calls["layerfile.read_layer"],
        "layerfile.read_layer.busy_s": a.busy_s("layerfile.read_layer"),
        "layerfile.read_layer.bytes": a.tag_sum("layerfile.read_layer"),
        "cli.self_s": a.self_s("cli.main"),
        "edges_s": parts.get("edges_s", 0.0),
        "degrees_s": parts.get("degrees_s", 0.0),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - base_wall,
    }
    for fn in ("degree_below", "degree_above"):
        m[f"analytics.{fn}.calls"] = a.calls[f"analytics.{fn}"]
        m[f"analytics.{fn}.busy_s"] = a.busy_s(f"analytics.{fn}")
        m[f"analytics.{fn}.self_s"] = a.self_s(f"analytics.{fn}")

    problems = []
    if wl.kind == "generate" and engine_lp_calls != lp_calls[True] + lp_calls[False]:
        problems.append(f"progress lines count {engine_lp_calls} LP calls, spans {sum(lp_calls.values())}")
    if wl.kind == "analytics" and m["analytics.lp_calls"] != sum(lp_calls.values()):
        problems.append("LP calls outside degree_below/degree_above during analytics")

    # Exact counts that must repeat across traced runs of the same sources.
    counts = {
        "lp_feasible": lp_calls[True],
        "lp_infeasible": lp_calls[False],
        "candidates": candidates,
        "sorted_extension_rejects": tracer.sorted_ext_rejects,
    }
    if wl.kind == "analytics":
        for op, op_name in enumerate(("edges", "degrees")):
            calls, _ = a.lp_verdicts(op=op)
            counts[f"{op_name}_lp_feasible"] = calls[True]
            counts[f"{op_name}_lp_infeasible"] = calls[False]
    problems += check_determinism(wl, counts)
    # Informational only: filters and oracle changes are meant to move these.
    seed_counts = wl.ref.get("seed_counts", {}).get(wl.name)
    log(f"{wl.name}: exact counts {'match' if counts == seed_counts else 'differ from'} "
        f"the seed-commit counts {seed_counts}")

    os.makedirs(os.path.join(OUT, wl.name), exist_ok=True)
    tracer.write_spans(os.path.join(OUT, wl.name, f"spans_d{wl.d}.csv"))
    table = layer_table(wl, seed, a, module_self, wall, base_wall, progress_rows, counts)
    with open(os.path.join(OUT, wl.name, f"layer_table_d{wl.d}.txt"), "w") as fh:
        fh.write(table)
    log(table)
    for p in problems:
        log(f"{wl.name}: {p}")
    return m, 2, failed, not problems


def check_determinism(wl: Workload, counts: dict) -> list[str]:
    """Exact counts must repeat across traced runs of the same sources."""
    store = os.path.join(OUT, "counts", f"{wl.name}-d{wl.d}-{source_digest()}.json")
    problems = []
    if os.path.exists(store):
        with open(store) as fh:
            before = json.load(fh)
        if before != counts:
            problems.append(f"exact counts changed between traced runs of the same sources: "
                            f"before {before}, now {counts}")
    else:
        os.makedirs(os.path.dirname(store), exist_ok=True)
        with open(store + ".tmp", "w") as fh:
            json.dump(counts, fh, indent=1, sort_keys=True)
        os.replace(store + ".tmp", store)
    return problems


def layer_table(wl, seed, a, module_self, wall, base_wall, progress_rows, counts) -> str:
    lines = [
        f"workload {wl.name}: {wl.kind} d={wl.d} layers 0..{wl.k_last}, seed {seed}",
        f"untraced wall {base_wall:.3f} s, traced wall {wall:.3f} s, "
        f"trace.overhead_s {wall - base_wall:+.3f} s",
        "",
        "self time by module (traced run)",
        f"  {'module':<10} {'self_s':>9} {'share':>7}",
    ]
    for module, s in sorted(module_self.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {module:<10} {s:9.3f} {100 * s / wall:6.1f}%")
    lines += ["", "spans", f"  {'name':<24} {'calls':>7} {'busy_s':>9} {'self_s':>9} {'max_s':>8}"]
    for name in sorted(a.calls):
        lines.append(f"  {name:<24} {a.calls[name]:7d} {a.busy_s(name):9.3f} "
                     f"{a.self_s(name):9.3f} {a.max_ns[name] / 1e9:8.4f}")
    if progress_rows:
        by_k = {row[0]: row for row in a.expand_rows()}
        lines += ["", "per layer (engine.expand_layer; entries, candidates and LP calls from the progress lines)",
                  f"  {'k':>3} {'entries':>7} {'cand':>6} {'lp':>6} {'feas':>6} {'infeas':>6} "
                  f"{'wall_s':>7} {'self_s':>7}"]
        for k, entries, cand, lp_calls in progress_rows:
            _, w, s, feas, infeas = by_k.get(k, (k, 0.0, 0.0, 0, 0))
            lines.append(f"  {k:3d} {entries:7d} {cand:6d} {lp_calls:6d} {feas:6d} {infeas:6d} "
                         f"{w:7.3f} {s:7.3f}")
    lines += ["", "exact counts: " + json.dumps(counts, sort_keys=True), ""]
    return "\n".join(lines)


def run_workload(name, config, seed, seconds, traced):
    """Returns (exit code, result dict or None)."""
    kind, d, max_layer = config
    try:
        package = import_program()
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    except (SetupError, OSError, ValueError, ImportError) as exc:
        log(f"error: {exc}")
        return 2, None
    work = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        wl = Workload(name, kind, d, max_layer, package, reference, work)
        try:
            setup_s = wl.setup()
        except (SetupError, subprocess.CalledProcessError) as exc:
            log(f"error: set-up failed: {exc}")
            return 1, None
        log(f"{name}: d={d} max_layer={max_layer} seed={seed} (inputs do not depend on the seed), "
            f"setup {setup_s:.3f} s")
        if traced:
            values, attempted, failed, ok = run_traced(wl, seed)
            units = PER_LAYER
        else:
            values, attempted, failed = run_untraced(wl, seconds)
            ok = True
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }
    return 0, result


def run_smoke() -> int:
    """Every workload at d=4, untraced and twice traced; checks outputs and metric names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    if set(WORKLOADS) != {w["name"] for w in bench["workloads"]}:
        failures.append("BENCHMARK.json workloads differ from run.py")
    for name, config in SMOKE_WORKLOADS.items():
        for traced in (0, 1, 1):
            code, result = run_workload(name, config, 0, 0, traced)
            if code != 0 or not result["correct"]:
                failures.append(f"{name} trace={traced}: exit {code}, result {result}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[traced]:
                failures.append(f"{name} trace={traced}: metrics {sorted(got)} differ from BENCHMARK.json")
    for f in failures:
        log(f"smoke FAILED: {f}")
    print("smoke ok" if not failures else f"smoke failed ({len(failures)})")
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload at d=4 and exit")
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke()
    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True,
            )
            last = proc.stdout.strip().splitlines()[-1:] or ["(no result)"]
            print(f"{name} {last[0]}", flush=True)
            code = code or proc.returncode
        return code
    code, result = run_workload(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    if result is not None:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
