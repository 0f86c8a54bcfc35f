"""Layer files: the on-disk format for completed layers.

One ASCII line per canonical vertex, ascending generator ids, a "|"
separator, then the point coordinates; entries sorted by point so files
are stable and diffable.  A single header line carries the dimension,
layer index, entry count, and a checksum of the body that is validated
before any resume.  A certificate file (``.certs``, written by
``generate --store-certificates``) holds one line per entry in entry
order: the point, " | ", then the certificate.

``read_layer`` streams the body line by line in text mode: each line goes
to an incremental sha256 and is parsed as it comes, so no copy of the
whole file is ever held, and the ids are parsed through a per-d table of
their text.  ``render`` writes the ids from a table of the text of each
byte of a mask.
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


def write_certificates(path: str, layer: LayerRecord) -> None:
    """Write the ``.certs`` file of a layer, in the format above, to path."""
    with atomic_open(path) as fh:
        for e in layer.entries:
            point = " ".join(str(x) for x in e.point)
            fh.write(point + " | " + " ".join(str(c) for c in e.certificate) + "\n")


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
def _id_row(i: int) -> tuple[str, ...]:
    """row[b] = the generator ids, as text, of the bits set in byte value b
    at byte i of a subset mask (bit j of the mask is generator j + 1).
    Kept for the process: one row for each byte position that a rendered
    layer has used, at most 2^d / 8."""
    return tuple(" ".join(str(8 * i + j + 1) for j in range(8) if b >> j & 1) for b in range(256))


def render(layer: LayerRecord) -> str:
    # a row only for a byte position that holds a member of some entry: the
    # 16 generators of layer 1 at d = 16 take 14 rows, not all 8,192
    used = 0
    for e in layer.entries:
        used |= e.subset
    size = (used.bit_length() + 7) // 8
    rows = [_id_row(i) if b else None for i, b in enumerate(used.to_bytes(size, "little"))]
    lines = []
    for e in sorted(layer.entries, key=lambda e: e.point):
        ids = " ".join([row[b] for row, b in zip(rows, e.subset.to_bytes(size, "little")) if b])
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
    """The layer held in a layer file, checked as it is read: the header,
    then the checksum of the body, then d, k and the entry count, then each
    entry (consistent ids and point, canonical, in order).  A bad entry
    found while streaming is reported only once the checksum has passed.
    Raises LayerFileError on the first check that fails."""
    try:
        with open(path) as fh:
            m = _HEADER_RE.match(fh.readline())
            if not m:
                raise LayerFileError(f"bad header in layer file {path}")
            d, k, n, digest = int(m.group(1)), int(m.group(2)), int(m.group(3)), m.group(4)
            sha = hashlib.sha256()
            entries = []
            problem = None
            if (d, k) == (expect_d, expect_k):
                problem = _read_entries(fh, sha.update, d, k, path, entries)
            count = len(entries) + (problem is not None)
            for line in fh:  # the lines after a bad entry, or all when d or k is wrong
                sha.update(line.encode())
                count += 1
    except OSError as exc:
        raise LayerFileError(f"cannot read layer file {path}: {exc}") from exc
    if sha.hexdigest() != digest:
        raise LayerFileError(f"checksum mismatch in layer file {path}")
    if d != expect_d:
        raise LayerFileError(f"layer file {path} has d={d}, expected {expect_d}")
    if k != expect_k:
        raise LayerFileError(f"layer file {path} has k={k}, expected {expect_k}")
    if count != n:
        raise LayerFileError(f"layer file {path} announces {n} entries, holds {count}")
    if problem:
        raise problem
    return LayerRecord(d, k, tuple(entries))


@functools.lru_cache(maxsize=None)
def _id_bits(d: int) -> dict[str, int]:
    """bits[str(g)] = 1 << (g - 1), the mask bit of generator g, for every
    generator id g of dimension d.  Built once per dimension; read-only."""
    return {str(g): 1 << (g - 1) for g in range(1, 1 << d)}


def _id_bit(text: str, d: int) -> int:
    """The mask bit of an id text missing from ``_id_bits(d)``, such as "03":
    ValueError unless it is an integer >= 1, and 1 << (2^d - 1), the bit
    past every generator, for any id past 2^d - 1."""
    g = int(text)
    if g < 1:
        raise ValueError(f"generator id {g}")
    return 1 << (min(g, 1 << d) - 1)


def _read_entries(lines, update, d: int, k: int, path: str, entries: list):
    """Append to ``entries`` the entries of the layer-file body ``lines``,
    passing each line, encoded, to ``update``; stop after the first bad
    line and return its LayerFileError, or return None.

    The mask of a line is the sum of the bits of its ids; it has k bits
    exactly when its k ids are distinct, since a repeated bit carries."""
    bits = _id_bits(d).__getitem__
    columns = core.columns(d)
    full = core.generator_count(d)
    orbit_size = comb.orbit_size
    append = entries.append
    prev = ()
    for line in lines:
        update(line.encode())
        left, _, right = line.partition("|")
        ids = left.split()
        try:
            try:
                subset = sum(map(bits, ids))
            except KeyError:
                subset = sum([_id_bit(g, d) for g in ids])
            point = tuple(map(int, right.split()))
        except ValueError:
            return _entry_error("malformed entry", path, line)
        if len(point) != d:
            return _entry_error("entry of wrong dimension", path, line)
        if (
            len(ids) != k
            or subset.bit_count() != k
            or subset >> full
            or tuple([(subset & column).bit_count() for column in columns]) != point
        ):
            return _entry_error("inconsistent entry", path, line)
        # canonical points are nondecreasing, and render writes them sorted and distinct
        if tuple(sorted(point)) != point or point <= prev:
            return _entry_error("non-canonical entry", path, line)
        prev = point
        append(comb.CanonicalVertex(subset, point, orbit_size(point, d)))
    return None


def _entry_error(what: str, path: str, line: str) -> LayerFileError:
    line = line[:-1] if line.endswith("\n") else line
    return LayerFileError(f"{what} in layer file {path}: {line!r}")
