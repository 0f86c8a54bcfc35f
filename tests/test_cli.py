import argparse
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from whitewhale import analytics, cli, comb, core, engine, layerfile, tables


def run_cli(*args):
    return cli.main([str(a) for a in args])


def full_run(tmp_path, d, *extra):
    layers_dir = tmp_path / "layers"
    assert run_cli("generate", "-d", d, "--layers-dir", layers_dir, "--quiet", *extra) == 0
    return layers_dir


def test_layer_file_roundtrip(tmp_path, generated):
    layers, _ = generated(3)
    path = tmp_path / "layer_d3_k3.www"
    layerfile.write_layer(str(path), layers[3])
    back = layerfile.read_layer(str(path), 3, 3)
    assert layerfile.render(back) == layerfile.render(layers[3])
    layerfile.write_layer(str(path) + ".again", back)
    assert path.read_text() == (tmp_path / "layer_d3_k3.www.again").read_text()


def test_layer_file_checksum_rejected(tmp_path, generated):
    layers, _ = generated(3)
    path = tmp_path / "layer.www"
    layerfile.write_layer(str(path), layers[2])
    text = path.read_text()
    path.write_text(text.replace("1 3 |", "1 5 |"))
    with pytest.raises(layerfile.LayerFileError, match="checksum"):
        layerfile.read_layer(str(path), 3, 2)


def test_layer_file_errors(tmp_path):
    with pytest.raises(layerfile.LayerFileError, match="cannot read"):
        layerfile.read_layer(str(tmp_path / "missing.www"), 3, 1)
    bad = tmp_path / "bad.www"
    bad.write_text("not a header\n")
    with pytest.raises(layerfile.LayerFileError, match="bad header"):
        layerfile.read_layer(str(bad), 3, 1)


def test_layer_file_header_mismatch(tmp_path, generated):
    layers, _ = generated(3)
    path = tmp_path / "layer.www"
    layerfile.write_layer(str(path), layers[2])
    with pytest.raises(layerfile.LayerFileError, match="d=3, expected 4"):
        layerfile.read_layer(str(path), 4, 2)
    with pytest.raises(layerfile.LayerFileError, match="k=2, expected 1"):
        layerfile.read_layer(str(path), 3, 1)


def _forge(path, d, k, lines):
    """Write a layer file with the given body lines and a valid header."""
    body = "".join(line + "\n" for line in lines)
    digest = hashlib.sha256(body.encode()).hexdigest()
    path.write_text(f"{layerfile.MAGIC} d={d} k={k} n={len(lines)} sha256={digest}\n{body}")


def test_layer_file_rejects_forged_entries(tmp_path):
    # every body below gets a valid checksum
    forged = [
        (["1 5 | 0 1 0 2"], "non-canonical"),      # a permuted point
        (["1 3 | 0 0 1 2"] * 2, "non-canonical"),  # a duplicated line
        (["1 1 | 0 0 0 1"], "inconsistent"),       # a repeated id
        (["1 1 3 | 0 0 1 2"], "inconsistent"),     # a repeated id, the mask's point
        (["3 17 | 0 0 1 2"], "inconsistent"),      # an id past 2^4 - 1
        (["0 3 | 0 0 1 1"], "malformed"),          # id 0
        (["a 3 | 0 0 1 2"], "malformed"),          # not a number
    ]
    layers_dir = full_run(tmp_path, 4)
    path = layers_dir / "layer_d4_k2.www"
    summary = (layers_dir / "summary.json").read_bytes()
    argv = ["generate", "-d", 4, "--layers-dir", layers_dir, "--resume-from", 2, "--quiet"]
    for lines, message in forged:
        _forge(path, 4, 2, lines)
        with pytest.raises(layerfile.LayerFileError, match=message):
            layerfile.read_layer(str(path), 4, 2)
        assert run_cli(*argv) == cli.EXIT_IO
        assert (layers_dir / "summary.json").read_bytes() == summary


def test_merge_partials_rejects_mixed(generated):
    layers, _ = generated(3)
    with pytest.raises(ValueError):
        engine.merge_partials([layers[1], layers[2]])
    with pytest.raises(ValueError):
        engine.merge_partials([])


def test_generate_writes_layers_and_summary(tmp_path):
    layers_dir = full_run(tmp_path, 3)
    for k in range(4):
        assert (layers_dir / f"layer_d3_k{k}.www").exists()
    summary = json.loads((layers_dir / "summary.json").read_text())
    assert summary["d"] == 3
    assert summary["a"] == 32
    assert summary["o"] == 5
    assert [l["canonical"] for l in summary["layers"]] == [1, 1, 1, 2]
    # summary arithmetic must match a recount from the files themselves
    read = [
        layerfile.read_layer(str(layers_dir / f"layer_d3_k{k}.www"), 3, k) for k in range(4)
    ]
    assert sum(l.orbit_sum for l in read) == summary["a"]
    assert sum(len(l.entries) for l in read) == summary["o"]


def test_generate_is_deterministic(tmp_path):
    first = full_run(tmp_path / "a", 3)
    second = full_run(tmp_path / "b", 3, "--threads", 2)
    for k in range(4):
        name = f"layer_d3_k{k}.www"
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_generate_progress_counts_d5(tmp_path, capsys):
    # candidates: the children within comb.shift_extensions that pass
    # comb.extensions, all 111 points among them vertices; pushed: the
    # children a push from a parent certificate certified during the walk;
    # LP calls: the other points, and by simplex those of them that the
    # push from the child's own point did not answer
    argv = ["generate", "-d", 5, "--threads", 1, "--layers-dir", tmp_path / "layers"]
    assert run_cli(*argv) == 0
    rows = re.findall(
        r"(\d+) candidates, (\d+) LP calls, (\d+) by simplex, (\d+) pushed, [0-9.]+ seconds",
        capsys.readouterr().err,
    )
    assert len(rows) == 15
    candidates, lp_calls, by_simplex, pushed = (sum(map(int, col)) for col in zip(*rows))
    assert (candidates, lp_calls, by_simplex, pushed) == (198, 14, 1, 97)
    argv[-1] = tmp_path / "quiet"
    assert run_cli(*argv, "--quiet") == 0
    assert capsys.readouterr().err == ""


def test_generate_resume(tmp_path):
    layers_dir = full_run(tmp_path, 4)
    originals = {
        k: (layers_dir / f"layer_d4_k{k}.www").read_bytes() for k in range(8)
    }
    for k in (5, 6, 7):
        os.remove(layers_dir / f"layer_d4_k{k}.www")
    assert (
        run_cli(
            "generate", "-d", 4, "--layers-dir", layers_dir, "--resume-from", 4, "--quiet"
        )
        == 0
    )
    for k in range(8):
        assert (layers_dir / f"layer_d4_k{k}.www").read_bytes() == originals[k]


def test_generate_resume_missing_file_is_io_error(tmp_path):
    assert (
        run_cli(
            "generate", "-d", 3, "--layers-dir", tmp_path, "--resume-from", 2, "--quiet"
        )
        == cli.EXIT_IO
    )


def test_generate_bad_lower_layer_keeps_summary(tmp_path, capsys):
    # a resumed run reads the layers below its start for the summary; a
    # missing or corrupt one must fail the run instead of leaving the
    # previous summary in place
    layers_dir = full_run(tmp_path, 4)
    assert run_cli("edges", "-d", 4, "--layers-dir", layers_dir) == 0
    summary = (layers_dir / "summary.json").read_bytes()
    k1, k2 = layers_dir / "layer_d4_k1.www", layers_dir / "layer_d4_k2.www"
    k1_bytes = k1.read_bytes()
    argv = ("generate", "-d", 4, "--layers-dir", layers_dir, "--resume-from", 4, "--quiet")
    os.remove(k1)
    capsys.readouterr()
    assert run_cli(*argv) == cli.EXIT_IO
    assert k1.name in capsys.readouterr().err
    assert (layers_dir / "summary.json").read_bytes() == summary
    k1.write_bytes(k1_bytes)
    k2.write_text(k2.read_text().replace("1 3 |", "1 5 |"))
    assert run_cli(*argv) == cli.EXIT_IO
    assert "checksum" in capsys.readouterr().err
    assert (layers_dir / "summary.json").read_bytes() == summary


def test_generate_summary_reads_only_layers_below_the_start(tmp_path, monkeypatch):
    # the summary counts the layers the run made as it makes them; a resume
    # from K reads layer K and the K layers below it, a fresh run none
    reads = []
    read_layer = layerfile.read_layer

    def counting(path, d, k):
        reads.append(k)
        return read_layer(path, d, k)

    monkeypatch.setattr(layerfile, "read_layer", counting)
    layers_dir = full_run(tmp_path, 5)
    assert reads == []
    summary = json.loads((layers_dir / "summary.json").read_text())
    for k in (0, 7, 15):
        reads.clear()
        argv = ("generate", "-d", 5, "--layers-dir", layers_dir, "--resume-from", k, "--quiet")
        assert run_cli(*argv) == cli.EXIT_OK
        assert sorted(reads) == list(range(k + 1))
        again = json.loads((layers_dir / "summary.json").read_text())
        assert {key: again[key] for key in ("a", "o", "layers")} == {
            key: summary[key] for key in ("a", "o", "layers")
        }
    assert (summary["a"], summary["o"]) == (tables.A_VALUES[5], tables.O_VALUES[5])


def test_summary_for_another_dimension_is_refused(tmp_path, capsys):
    # one summary.json per directory: a run for another d would drop e(3)
    layers_dir = full_run(tmp_path, 3)
    assert run_cli("edges", "-d", 3, "--layers-dir", layers_dir) == 0
    summary = (layers_dir / "summary.json").read_bytes()
    capsys.readouterr()
    for argv in (("generate", "-d", 4, "--quiet"), ("edges", "-d", 4)):
        assert run_cli(*argv, "--layers-dir", layers_dir) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "d=3" in err and "d=4" in err
    assert (layers_dir / "summary.json").read_bytes() == summary
    assert json.loads(summary)["e"] == 48
    assert not list(layers_dir.glob("layer_d4_*"))


def test_generate_rejects_bad_dimension(tmp_path, capsys):
    assert run_cli("generate", "-d", 1, "--layers-dir", tmp_path, "--quiet") == cli.EXIT_CONFIG
    assert "dimension must be in [2, 16]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("edges", "-d", 1),
        ("degrees", "-d", 0),
        ("verify", "-d", 17, "--mode", "tables"),
        ("merge-shards", "-d", 1, "-k", 0, "--total", 1),
    ],
    ids=lambda argv: argv[0],
)
def test_bad_dimension_is_refused_while_parsing(tmp_path, capsys, argv):
    layers_dir = tmp_path / "layers"
    assert run_cli(*argv, "--layers-dir", layers_dir) == cli.EXIT_CONFIG
    assert "dimension must be in [2, 16]" in capsys.readouterr().err
    assert not layers_dir.exists()


def test_generate_runs_d8_without_a_flag(tmp_path):
    # d = 8 runs like any other dimension, and the old gate flag is gone:
    # argparse rejects it with exit code 2
    args = ("generate", "-d", 8, "--max-layer", 3, "--quiet", "--layers-dir", tmp_path)
    assert run_cli(*args) == 0
    assert sorted(p.name for p in tmp_path.glob("layer_d8_k*.www")) == [
        f"layer_d8_k{k}.www" for k in range(4)
    ]
    assert run_cli(*args, "--i-know") == cli.EXIT_CONFIG


def test_shard_without_resume_is_config_error(tmp_path):
    assert (
        run_cli("generate", "-d", 3, "--layers-dir", tmp_path, "--shard", "0/2", "--quiet")
        == cli.EXIT_CONFIG
    )
    assert (
        run_cli("generate", "-d", 3, "--layers-dir", tmp_path, "--shard", "nope", "--quiet")
        == cli.EXIT_CONFIG
    )


def test_shard_index_out_of_range_is_config_error(tmp_path, capsys):
    # refused while parsing, before any file is read or written
    for spec in ("2/2", "0/0", "-1/2"):
        with pytest.raises(argparse.ArgumentTypeError, match="out of range"):
            cli._shard(spec)
        argv = ("--resume-from", 3, f"--shard={spec}", "--quiet")
        assert run_cli("generate", "-d", 4, "--layers-dir", tmp_path, *argv) == cli.EXIT_CONFIG
        assert "out of range" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_shard_runs_on_its_threads(tmp_path, inline_pools):
    # a shard is a resumed run of a slice of its start layer: --threads
    # opens one pool for its oracle calls, and the part file does not change
    layers_dir = full_run(tmp_path, 5)
    part = layers_dir / "layer_d5_k11.part0of2.www"
    argv = ("generate", "-d", 5, "--layers-dir", layers_dir, "--resume-from", 10, "--quiet")
    parts = []
    for threads in (1, 2):
        assert run_cli(*argv, "--shard", "0/2", "--threads", threads) == 0
        parts.append(part.read_bytes())
    (pool,) = inline_pools
    assert pool.max_workers == 2
    assert any(n > chunk for n, chunk in pool.chunks)  # split across both workers
    assert parts[1] == parts[0]


def test_shard_refuses_store_certificates(tmp_path, capsys):
    # merge-shards merges no .certs files, so a shard's certificates would be
    # lost: refuse, and write nothing
    layers_dir = full_run(tmp_path, 4)
    os.remove(layers_dir / "layer_d4_k5.www")
    before = sorted(os.listdir(layers_dir))
    capsys.readouterr()
    argv = ("--resume-from", 4, "--shard", "0/2", "--store-certificates", "--quiet")
    assert run_cli("generate", "-d", 4, "--layers-dir", layers_dir, *argv) == cli.EXIT_CONFIG
    assert "--store-certificates" in capsys.readouterr().err
    assert sorted(os.listdir(layers_dir)) == before


def test_shard_and_merge_cli(tmp_path):
    layers_dir = full_run(tmp_path, 4)
    reference = (layers_dir / "layer_d4_k4.www").read_bytes()
    os.remove(layers_dir / "layer_d4_k4.www")
    for i in range(2):
        assert (
            run_cli(
                "generate", "-d", 4, "--layers-dir", layers_dir,
                "--resume-from", 3, "--shard", f"{i}/2", "--quiet",
            )
            == 0
        )
    assert (
        run_cli("merge-shards", "-d", 4, "-k", 4, "--total", 2, "--layers-dir", layers_dir)
        == 0
    )
    assert (layers_dir / "layer_d4_k4.www").read_bytes() == reference


def test_merge_shards_reports_the_repeats(tmp_path, capsys):
    # a point reached from parents in both slices of layer 10 is decided in each shard
    layers_dir = full_run(tmp_path, 5)
    reference = (layers_dir / "layer_d5_k11.www").read_bytes()
    os.remove(layers_dir / "layer_d5_k11.www")
    for i in range(2):
        argv = ("--resume-from", 10, "--shard", f"{i}/2", "--quiet")
        assert run_cli("generate", "-d", 5, "--layers-dir", layers_dir, *argv) == 0
    capsys.readouterr()
    argv = ("-d", 5, "-k", 11, "--total", 2, "--layers-dir", layers_dir)
    assert run_cli("merge-shards", *argv) == 0
    assert capsys.readouterr().err.splitlines() == [
        "layer 11: 12 entries merged from 19 shard entries, 7 repeats dropped"
    ]
    assert (layers_dir / "layer_d5_k11.www").read_bytes() == reference


def test_merge_shards_conflict_is_internal_error(tmp_path):
    # {1, 6} and {2, 5} both sum to (1, 1, 1) at d=3
    for i, ids in enumerate(([1, 6], [2, 5])):
        entry = comb.CanonicalVertex(core.mask_of(ids), (1, 1, 1), 1)
        part = engine.LayerRecord(3, 2, (entry,))
        layerfile.write_layer(layerfile.layer_path(str(tmp_path), 3, 2, (i, 2)), part)
    assert (
        run_cli("merge-shards", "-d", 3, "-k", 2, "--total", 2, "--layers-dir", tmp_path)
        == cli.EXIT_INTERNAL
    )
    assert not (tmp_path / "layer_d3_k2.www").exists()


def test_shard_at_or_past_max_layer_is_config_error(tmp_path):
    layers_dir = full_run(tmp_path, 4)
    for extra in (("--resume-from", 7), ("--resume-from", 3, "--max-layer", 3)):
        assert (
            run_cli(
                "generate", "-d", 4, "--layers-dir", layers_dir, "--shard", "0/1", "--quiet",
                *extra,
            )
            == cli.EXIT_CONFIG
        )
    assert not list(layers_dir.glob("*.part*"))


def test_resume_past_max_layer_is_config_error(tmp_path):
    # the unsharded form of the request above: refused, nothing rewritten;
    # resuming at the max layer itself is allowed and writes nothing new
    layers_dir = full_run(tmp_path, 4)
    before = {p.name: p.read_bytes() for p in layers_dir.iterdir()}
    argv = ("generate", "-d", 4, "--layers-dir", layers_dir, "--quiet")
    assert run_cli(*argv, "--resume-from", 5, "--max-layer", 3) == cli.EXIT_CONFIG
    assert run_cli(*argv, "--resume-from", 3, "--max-layer", 3) == cli.EXIT_OK
    assert {p.name: p.read_bytes() for p in layers_dir.iterdir()} == before


# Loaded only by the commands or the worker count that need them.
DEFERRED_MODULES = {
    "concurrent.futures", "multiprocessing", "fractions", "decimal", "csv", "whitewhale.tables",
    "dataclasses", "inspect",
}
# Every module perfbench/spans.py patches, which it finds as attributes of the package.
TRACED_MODULES = {
    f"whitewhale.{m}" for m in ("cli", "engine", "lp", "comb", "core", "analytics", "layerfile")
}


def test_one_worker_generate_loads_no_deferred_module(tmp_path):
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import whitewhale.cli\n"
        "rc = whitewhale.cli.main(['generate', '-d', '4', '--quiet', '--layers-dir', sys.argv[1]])\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
        "sys.exit(rc)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "layers")],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert sorted(loaded & DEFERRED_MODULES) == []
    assert sorted(TRACED_MODULES - loaded) == []


def _subcommands():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _options(command):
    return {s for a in _subcommands()[command]._actions for s in a.option_strings}


def test_option_surface():
    assert set(_subcommands()) == {"generate", "edges", "degrees", "verify", "merge-shards"}
    common = {"-h", "--help", "-d", "--layers-dir"}
    assert _options("generate") == common | {
        "--max-layer", "--threads", "--shard", "--resume-from", "--store-certificates",
        "--quiet",
    }
    assert _options("edges") == common
    assert _options("degrees") == common
    assert _options("verify") == common | {"--mode"}
    assert _options("merge-shards") == common | {"-k", "--total"}


def test_unknown_option_fails_at_parsing(tmp_path):
    assert run_cli("edges", "-d", 3, "--layers-dir", tmp_path, "--threads", 1) == cli.EXIT_CONFIG


def test_summary_write_is_atomic(tmp_path, monkeypatch):
    layers_dir = full_run(tmp_path, 3)
    before = (layers_dir / "summary.json").read_bytes()

    def torn_dump(obj, fh, **kwargs):
        fh.write("{")
        raise OSError("disk full")

    monkeypatch.setattr(cli.json, "dump", torn_dump)
    assert run_cli("edges", "-d", 3, "--layers-dir", layers_dir) == cli.EXIT_IO
    assert (layers_dir / "summary.json").read_bytes() == before
    assert not (layers_dir / "summary.json.tmp").exists()


def test_failed_write_leaves_no_file(tmp_path, monkeypatch, generated):
    # every output file goes through layerfile.atomic_open: a write that
    # raises partway leaves neither the target nor its .tmp file
    layers, _ = generated(4)
    layer = layers[4]
    bare = [comb.CanonicalVertex(e.subset, e.point, e.orbit_size) for e in layer.entries]
    third_uncertified = engine.LayerRecord(4, 4, layer.entries[:2] + tuple(bare[2:]))
    with pytest.raises(TypeError):
        cli._write_certificates(str(tmp_path), third_uncertified)

    def failing_render(layer):
        raise RuntimeError("render failed")

    monkeypatch.setattr(layerfile, "render", failing_render)
    with pytest.raises(RuntimeError):
        layerfile.write_layer(layerfile.layer_path(str(tmp_path), 4, 4), layer)
    assert not list(tmp_path.iterdir())

    monkeypatch.undo()
    layers_dir = full_run(tmp_path, 3)
    before = sorted(os.listdir(layers_dir))
    real_writer = csv.writer

    def writer_failing_on_third_row(fh):
        writer, rows = real_writer(fh), []

        class Failing:
            def writerow(self, row):
                rows.append(row)
                if len(rows) == 3:
                    raise OSError("disk full")
                writer.writerow(row)

        return Failing()

    monkeypatch.setattr(csv, "writer", writer_failing_on_third_row)
    for command in ("edges", "degrees"):
        assert run_cli(command, "-d", 3, "--layers-dir", layers_dir) == cli.EXIT_IO
    assert sorted(os.listdir(layers_dir)) == before


def test_corrupt_summary_is_io_error(tmp_path, capsys):
    layers_dir = full_run(tmp_path, 3)
    path = layers_dir / "summary.json"
    path.write_text("{ not json")
    capsys.readouterr()
    for argv in (("edges", "-d", 3), ("generate", "-d", 3, "--quiet")):
        assert run_cli(*argv, "--layers-dir", layers_dir) == cli.EXIT_IO
        assert str(path) in capsys.readouterr().err
    assert path.read_text() == "{ not json"


def test_store_certificates_cli(tmp_path):
    layers_dir = full_run(tmp_path, 3, "--store-certificates")
    text = (layers_dir / "layer_d3_k3.certs").read_text()
    assert len(text.splitlines()) == 2
    assert all("|" in line for line in text.splitlines())


def test_edges_cli(tmp_path):
    layers_dir = full_run(tmp_path, 3)
    assert run_cli("edges", "-d", 3, "--layers-dir", layers_dir) == 0
    summary = json.loads((layers_dir / "summary.json").read_text())
    assert summary["e"] == 48
    with open(layers_dir / "edges_d3.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "point", "orbit", "deg_below"]
    assert len(rows) == 5


def test_degrees_cli(tmp_path):
    layers_dir = full_run(tmp_path, 3)
    assert run_cli("degrees", "-d", 3, "--layers-dir", layers_dir) == 0
    with open(layers_dir / "degrees_d3.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "point", "orbit", "deg_below", "deg_above", "deg"]
    assert [r[3:] for r in rows[1:]] == [
        ["0", "3", "3"],
        ["1", "2", "3"],
        ["1", "2", "3"],
        ["2", "1", "3"],
        ["2", "1", "3"],
    ]


def test_verify_cli_passes(tmp_path, capsys):
    layers_dir = full_run(tmp_path, 3)
    assert run_cli("verify", "-d", 3, "--mode", "all", "--layers-dir", layers_dir) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_checks_edges_at_d6(tmp_path, capsys, generated):
    layers, _ = generated(6)
    for layer in layers:
        layerfile.write_layer(layerfile.layer_path(str(tmp_path), 6, layer.k), layer)
    assert run_cli("verify", "-d", 6, "--layers-dir", tmp_path) == 0
    out = capsys.readouterr().out
    assert "e(6) == 3662064: PASS" in out.splitlines()
    assert "FAIL" not in out


def test_verify_families_checks_the_closed_form_points(monkeypatch, capsys):
    # families mode reads no layer file: it checks the closed forms themselves
    assert run_cli("verify", "-d", 4, "--mode", "families") == 0
    for name in ("family_U_point", "family_W_point"):
        with monkeypatch.context() as m:
            m.setattr(analytics, name, lambda d, k: (0,) * d)
            assert run_cli("verify", "-d", 4, "--mode", "families") == cli.EXIT_VERIFY
    out = capsys.readouterr().out
    assert out.count("FAIL") == 2
    assert "U-family closed-form points and degrees d=4: FAIL" in out.splitlines()


def test_verify_missing_layers_is_io_error(tmp_path):
    for mode in ("tables", "bruteforce", "all"):
        assert (
            run_cli("verify", "-d", 4, "--mode", mode, "--layers-dir", tmp_path / "none")
            == cli.EXIT_IO
        )


def test_verify_reads_the_layer_files(tmp_path, capsys):
    layers_dir = full_run(tmp_path, 4)
    path = str(layers_dir / "layer_d4_k5.www")
    layer = layerfile.read_layer(path, 4, 5)
    layerfile.write_layer(path, engine.LayerRecord(4, 5, layer.entries[1:]))
    capsys.readouterr()
    for mode in ("tables", "bruteforce"):
        assert (
            run_cli("verify", "-d", 4, "--mode", mode, "--layers-dir", layers_dir)
            == cli.EXIT_VERIFY
        )
        assert "FAIL" in capsys.readouterr().out


def test_bad_layer_midway_through_the_degree_pass(tmp_path, capsys):
    # the degree pass writes rows while it reads the layers, so a layer that
    # fails its checksum partway must leave the earlier outputs as they were
    layers_dir = full_run(tmp_path, 4)
    for command in ("edges", "degrees"):
        assert run_cli(command, "-d", 4, "--layers-dir", layers_dir) == 0
    outputs = {name: (layers_dir / name).read_bytes()
               for name in ("edges_d4.csv", "degrees_d4.csv", "summary.json")}
    listing = sorted(os.listdir(layers_dir))
    k3 = layers_dir / "layer_d4_k3.www"
    k3.write_text(k3.read_text().replace("1 3 5 |", "1 3 6 |"))
    capsys.readouterr()
    for argv in (("edges",), ("degrees",), ("verify", "--mode", "tables")):
        assert run_cli(*argv, "-d", 4, "--layers-dir", layers_dir) == cli.EXIT_IO
        assert "checksum mismatch" in capsys.readouterr().err
        assert {name: (layers_dir / name).read_bytes() for name in outputs} == outputs
        assert sorted(os.listdir(layers_dir)) == listing


def test_verify_cli_bruteforce_needs_small_d(tmp_path):
    assert run_cli("verify", "-d", 5, "--mode", "bruteforce") == cli.EXIT_CONFIG


def test_verify_tables_beyond_the_ground_truth(tmp_path, capsys, monkeypatch):
    # the tables hold a(d) and o(d) up to d = 9; at d = 10 an explicit
    # --mode tables is refused before any file is read
    assert max(tables.A_VALUES) == 9
    assert (
        run_cli("verify", "-d", 10, "--mode", "tables", "--layers-dir", tmp_path / "none")
        == cli.EXIT_CONFIG
    )
    assert "tables mode needs d <= 9, got 10" in capsys.readouterr().err
    # and "all" runs only the family checks there, even with every layer file present
    for k in range(core.halfway_layer(10) + 1):
        path = layerfile.layer_path(str(tmp_path), 10, k)
        layerfile.write_layer(path, engine.LayerRecord(10, k, ()))
    # the oracle degree checks of the U family take over a minute at d = 10
    monkeypatch.setattr(analytics, "family_degree_check", lambda d, k: None)
    assert run_cli("verify", "-d", 10, "--mode", "all", "--layers-dir", tmp_path) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" d=")[0] for line in out] == [
        "U-family closed-form points and degrees",
        "U-family closed-form certificates",
        "W-family vertices and closed-form points",
    ]
