"""Command-line surface.

Subcommands: generate, edges, degrees, verify, merge-shards.
Exit codes: 0 success, 1 failed verification, 2 configuration error,
3 I/O error, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# csv and tables are imported by the commands that use them, so generate loads neither
from . import analytics, core, engine, layerfile, lp

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.func(args)
    except (layerfile.LayerFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AssertionError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whitewhale",
        description="Layered orbitwise vertex generation for the White Whale zonotope.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate canonical vertex layers")
    _common(p)
    p.add_argument("--max-layer", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--shard", type=_shard, default=None, metavar="I/N")
    p.add_argument("--resume-from", type=int, default=None, metavar="K")
    p.add_argument("--store-certificates", action="store_true")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("edges", help="count edges from completed layers")
    _common(p)
    p.set_defaults(func=cmd_edges)

    p = sub.add_parser("degrees", help="per-vertex degree table from completed layers")
    _common(p)
    p.set_defaults(func=cmd_degrees)

    p = sub.add_parser("verify", help="check the layer files against embedded ground truth")
    _common(p)
    p.add_argument(
        "--mode",
        choices=["tables", "bruteforce", "families", "all"],
        default="all",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("merge-shards", help="union sharded partial layer files")
    p.add_argument("-d", type=_dimension, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--total", type=int, required=True)
    p.add_argument("--layers-dir", default="layers")
    p.set_defaults(func=cmd_merge_shards)

    return parser


def _common(p):
    p.add_argument("-d", type=_dimension, required=True, help="dimension")
    p.add_argument("--layers-dir", default="layers")


def _dimension(text: str) -> int:
    try:
        d = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    try:
        return core.check_dimension(d)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _shard(text: str):
    try:
        i, n = map(int, text.split("/"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected I/N, got {text!r}") from None
    if not 0 <= i < n:
        raise argparse.ArgumentTypeError(f"shard index {i} out of range for total {n}")
    return i, n


def _summary_path(layers_dir: str) -> str:
    return os.path.join(layers_dir, "summary.json")


def _load_summary(layers_dir: str, d: int) -> dict:
    path = _summary_path(layers_dir)
    if os.path.exists(path):
        with open(path) as fh:
            try:
                summary = json.load(fh)
                if not isinstance(summary, dict):
                    raise ValueError("not a JSON object")
            except ValueError as exc:
                raise layerfile.LayerFileError(f"corrupt summary file {path}: {exc}") from exc
        if summary.get("d") != d:
            raise layerfile.LayerFileError(
                f"summary file {path} is for d={summary.get('d')}, not d={d}; "
                "use another --layers-dir"
            )
        return summary
    return {"d": d, "a": None, "e": None, "o": None, "layers": [], "wall_seconds": None}


def _write_summary(layers_dir: str, summary: dict) -> None:
    with layerfile.atomic_open(_summary_path(layers_dir)) as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")


def _layers(layers_dir: str, d: int, stop: int | None = None):
    """Layers 0..stop-1 (default 0..2^{d-1}-1) of dimension d, read from their
    files one at a time."""
    for k in range(core.halfway_layer(d) + 1 if stop is None else stop):
        yield layerfile.read_layer(layerfile.layer_path(layers_dir, d, k), d, k)


def cmd_generate(args) -> int:
    d = args.d
    cfg = engine.RunConfig(d=d, max_layer=args.max_layer, worker_count=args.threads)
    os.makedirs(args.layers_dir, exist_ok=True)
    summary = _load_summary(args.layers_dir, d)
    t0 = time.monotonic()

    start = None
    if args.resume_from is not None:
        start = layerfile.read_layer(
            layerfile.layer_path(args.layers_dir, d, args.resume_from), d, args.resume_from
        )

    # a shard resumes from the entries i mod n of layer K and stops at K + 1
    if args.shard is not None:
        if start is None:
            raise ValueError("--shard requires --resume-from")
        if args.store_certificates:
            raise ValueError(
                "--store-certificates does not apply to --shard "
                "(merge-shards merges no certificate files)"
            )
        if start.k >= cfg.max_layer:
            raise ValueError(f"cannot shard layer {start.k}: the max layer is {cfg.max_layer}")
        i, n = args.shard
        start = engine.LayerRecord(d, start.k, start.entries[i::n])
        cfg = engine.RunConfig(d, start.k + 1, cfg.worker_count)

    # the summary needs every layer; a resumed run reads those below its start
    complete = args.shard is None and cfg.max_layer == core.halfway_layer(d)
    rows = []
    if complete and start is not None:
        rows = [_summary_row(layer) for layer in _layers(args.layers_dir, d, start.k)]
        rows.append(_summary_row(start))
    for layer in engine.generate(cfg, start):
        if layer.k > 0 and not args.quiet:
            print(
                f"layer {layer.k}: {len(layer.entries)} entries, {layer.candidates} candidates, "
                f"{layer.lp_calls} LP calls, {layer.by_simplex} by simplex, "
                f"{layer.pushed} pushed, {layer.seconds:.1f} seconds",
                file=sys.stderr,
            )
        layerfile.write_layer(layerfile.layer_path(args.layers_dir, d, layer.k, args.shard), layer)
        if args.store_certificates and layer.k > 0:
            _write_certificates(args.layers_dir, layer)
        rows.append(_summary_row(layer))

    if complete:
        summary.update(
            a=sum(r["orbit_sum"] for r in rows),
            o=sum(r["canonical"] for r in rows),
            layers=rows,
            wall_seconds=round(time.monotonic() - t0, 3),
        )
        _write_summary(args.layers_dir, summary)
    return EXIT_OK


def _summary_row(layer: engine.LayerRecord) -> dict:
    return {"k": layer.k, "canonical": len(layer.entries), "orbit_sum": layer.orbit_sum}


def _write_certificates(layers_dir: str, layer: engine.LayerRecord) -> None:
    with layerfile.atomic_open(layerfile.certs_path(layers_dir, layer.d, layer.k)) as fh:
        for e in layer.entries:
            point = " ".join(str(x) for x in e.point)
            fh.write(point + " | " + " ".join(str(c) for c in e.certificate) + "\n")


def _write_degree_csv(args, path: str, columns: int, first: int = 0) -> int:
    """Write path from one degree pass: the first ``columns`` columns of the
    degree table for every vertex of layers first..2^{d-1}-1, each layer's
    rows as soon as its records are known.  Returns e(d)."""
    import csv

    def written(writer):
        for k, records in enumerate(analytics.layer_degrees(_layers(args.layers_dir, args.d))):
            for r in records if k >= first else ():
                e = r.canonical
                point = " ".join(str(x) for x in e.point)
                row = [k, point, e.orbit_size, r.deg_below, r.deg_above, r.degree]
                writer.writerow(row[:columns])
            yield records

    with layerfile.atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "point", "orbit", "deg_below", "deg_above", "deg"][:columns])
        return analytics.count_edges(written(writer))


def cmd_edges(args) -> int:
    summary = _load_summary(args.layers_dir, args.d)
    path = os.path.join(args.layers_dir, f"edges_d{args.d}.csv")
    summary["e"] = _write_degree_csv(args, path, columns=4, first=1)
    _write_summary(args.layers_dir, summary)
    print(f"e({args.d}) = {summary['e']}")
    return EXIT_OK


def cmd_degrees(args) -> int:
    path = os.path.join(args.layers_dir, f"degrees_d{args.d}.csv")
    _write_degree_csv(args, path, columns=6)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import tables

    d = args.d
    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool):
        checks.append((name, ok))
        print(f"{name}: {'PASS' if ok else 'FAIL'}")

    modes = {args.mode} if args.mode != "all" else {"tables", "bruteforce", "families"}
    # past the d a mode has ground truth for, "all" drops it and the mode itself is refused
    for mode, top in (("bruteforce", 4), ("tables", max(tables.A_VALUES))):
        if mode in modes and d > top:
            if args.mode != "all":
                print(f"error: {mode} mode needs d <= {top}, got {d}", file=sys.stderr)
                return EXIT_CONFIG
            modes.discard(mode)

    if "tables" in modes:
        a = o = 0
        rows = []  # the rows of tables.D3_ROWS / D4_ROWS, at d = 3 and 4

        def tallied():
            nonlocal a, o
            for k, records in enumerate(analytics.layer_degrees(_layers(args.layers_dir, d))):
                a += sum(r.canonical.orbit_size for r in records)
                o += len(records)
                for r in records if d in (3, 4) else ():
                    e = r.canonical
                    ids = tuple(core.generators_of(e.subset))
                    rows.append((k, ids, e.point, e.orbit_size, r.deg_below, r.deg_above))
                yield records

        e_total = analytics.count_edges(tallied())
        check(f"a({d}) == {tables.A_VALUES[d]}", a == tables.A_VALUES[d])
        check(f"o({d}) == {tables.O_VALUES[d]}", o == tables.O_VALUES[d])
        if d in (3, 4):
            want = tables.D3_ROWS if d == 3 else tables.D4_ROWS
            check(f"layer table d={d} row-for-row", [r[:4] for r in rows] == [r[:4] for r in want])
            check(f"degree table d={d} row-for-row", [r[4:] for r in rows] == [r[4:] for r in want])
        if d in tables.E_VALUES:
            check(f"e({d}) == {tables.E_VALUES[d]}", e_total == tables.E_VALUES[d])

    if "bruteforce" in modes:
        brute = analytics.white_whale_brute_force(d)
        expanded = analytics.all_vertices_from_layers(list(_layers(args.layers_dir, d)))
        check(f"brute force vs layered engine at d={d}", brute == expanded)

    if "families" in modes:
        ok = True
        for k in range(1, d):
            try:
                analytics.family_degree_check(d, k)
            except AssertionError:
                ok = False
            ok &= core.point_of(analytics.family_U(d, k), d) == analytics.family_U_point(d, k)
        check(f"U-family closed-form points and degrees d={d}", ok)
        certs_ok = all(
            lp.verify_certificate(c, S, d)
            for k in range(1, d)
            for S, c in analytics.family_U_certificates(d, k)
        )
        check(f"U-family closed-form certificates d={d}", certs_ok)
        w_ok = all(
            lp.vertex_feasible(analytics.family_W(d, k), d).feasible
            and analytics.family_W(d, k).bit_count() == (1 << k) - 1
            and core.point_of(analytics.family_W(d, k), d) == analytics.family_W_point(d, k)
            for k in range(1, d + 1)
        )
        check(f"W-family vertices and closed-form points d={d}", w_ok)

    return EXIT_OK if all(ok for _, ok in checks) else EXIT_VERIFY


def cmd_merge_shards(args) -> int:
    partials = [
        layerfile.read_layer(
            layerfile.layer_path(args.layers_dir, args.d, args.k, (i, args.total)),
            args.d,
            args.k,
        )
        for i in range(args.total)
    ]
    merged = engine.merge_partials(partials)
    layerfile.write_layer(layerfile.layer_path(args.layers_dir, args.d, args.k), merged)
    # a point reached from parents in two slices was decided in each shard
    found = sum(len(p.entries) for p in partials)
    print(
        f"layer {args.k}: {len(merged.entries)} entries merged from {found} shard entries, "
        f"{found - len(merged.entries)} repeats dropped",
        file=sys.stderr,
    )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
