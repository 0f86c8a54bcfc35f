"""Layer files: the on-disk format for completed layers.

One ASCII line per canonical vertex, ascending generator ids, a "|"
separator, then the point coordinates; entries sorted by point so files
are stable and diffable.  A single header line carries the dimension,
layer index, entry count, and a checksum of the body that is validated
before any resume.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import re

from . import comb, core
from .engine import LayerRecord

MAGIC = "WWLAYER1"

_HEADER_RE = re.compile(
    rf"^{MAGIC} d=(\d+) k=(\d+) n=(\d+) sha256=([0-9a-f]{{64}})$"
)


class LayerFileError(Exception):
    """Raised for missing, malformed, or checksum-failing layer files."""


def layer_filename(d: int, k: int, shard=None) -> str:
    if shard is None:
        return f"layer_d{d}_k{k}.www"
    i, n = shard
    return f"layer_d{d}_k{k}.part{i}of{n}.www"


def layer_path(layers_dir: str, d: int, k: int, shard=None) -> str:
    return os.path.join(layers_dir, layer_filename(d, k, shard))


def certs_path(layers_dir: str, d: int, k: int) -> str:
    return os.path.join(layers_dir, f"layer_d{d}_k{k}.certs")


@contextlib.contextmanager
def atomic_open(path: str, newline: str | None = None):
    """Write path through path + ".tmp": moved over path at the end, removed on error."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@functools.lru_cache(maxsize=None)
def _byte_ids(position: int, b: int) -> str:
    """The generator ids, as text, of the bits set in byte value b at byte
    ``position`` of a subset mask (bit j of the mask is generator j + 1)."""
    return " ".join(str(8 * position + j + 1) for j in range(8) if b >> j & 1)


def render(layer: LayerRecord) -> str:
    size = (core.generator_count(layer.d) + 7) // 8
    lines = []
    for e in sorted(layer.entries, key=lambda e: e.point):
        ids = " ".join(
            [_byte_ids(i, b) for i, b in enumerate(e.subset.to_bytes(size, "little")) if b]
        )
        point = " ".join(map(str, e.point))
        lines.append(f"{ids} | {point}" if ids else f"| {point}")
    body = "".join(line + "\n" for line in lines)
    digest = hashlib.sha256(body.encode()).hexdigest()
    header = f"{MAGIC} d={layer.d} k={layer.k} n={len(lines)} sha256={digest}\n"
    return header + body


def write_layer(path: str, layer: LayerRecord) -> None:
    with atomic_open(path) as fh:
        fh.write(render(layer))


def read_layer(path: str, expect_d: int, expect_k: int) -> LayerRecord:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise LayerFileError(f"cannot read layer file {path}: {exc}") from exc
    header, _, body = text.partition("\n")
    m = _HEADER_RE.match(header)
    if not m:
        raise LayerFileError(f"bad header in layer file {path}")
    d, k, n, digest = int(m.group(1)), int(m.group(2)), int(m.group(3)), m.group(4)
    if hashlib.sha256(body.encode()).hexdigest() != digest:
        raise LayerFileError(f"checksum mismatch in layer file {path}")
    if d != expect_d:
        raise LayerFileError(f"layer file {path} has d={d}, expected {expect_d}")
    if k != expect_k:
        raise LayerFileError(f"layer file {path} has k={k}, expected {expect_k}")
    entries = []
    lines = body.splitlines()
    if len(lines) != n:
        raise LayerFileError(f"layer file {path} announces {n} entries, holds {len(lines)}")
    prev = ()
    for line in lines:
        left, _, right = line.partition("|")
        try:
            ids = list(map(int, left.split()))
            point = tuple(map(int, right.split()))
            subset = core.mask_of(ids)
        except ValueError:
            raise LayerFileError(f"malformed entry in layer file {path}: {line!r}") from None
        if len(point) != d:
            raise LayerFileError(f"entry of wrong dimension in layer file {path}: {line!r}")
        if (
            len(ids) != k
            or subset.bit_count() != k
            or subset >> core.generator_count(d)
            or core.point_of(subset, d) != point
        ):
            raise LayerFileError(f"inconsistent entry in layer file {path}: {line!r}")
        # canonical points are nondecreasing, and render writes them sorted and distinct
        if tuple(sorted(point)) != point or point <= prev:
            raise LayerFileError(f"non-canonical entry in layer file {path}: {line!r}")
        prev = point
        entries.append(comb.CanonicalVertex(subset, point, comb.orbit_size(point, d)))
    return LayerRecord(d, k, tuple(entries))

