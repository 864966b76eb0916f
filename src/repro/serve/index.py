"""Persistent RR-sketch index for the serving layer.

A seed-query server's dominant cost is generating RR sets; the sets
themselves are plain integer arrays that are *query-independent*
(Section 3.1: an RR set depends only on the graph, the diffusion
model, and the randomness stream).  Persisting the two collection
halves therefore turns every future process start into a warm start:
load the index, and the first query at any ``k`` is answered from the
existing sketch instead of sampling from zero — the reuse idea of
Tang et al. (arXiv:1404.0900) and the long-lived index of Peng
(arXiv:2110.12602).

On-disk layout (one directory per index)::

    manifest.json     graph hash + model + seed + sample counts +
                      offsets checksums + sampler stream state +
                      per-k schedule positions (format below)
    sessions.journal  per-k schedule positions appended since the
                      manifest was written (optional, see below)
    r1_nodes.npy      flattened member node ids of the R1 half
    r1_offsets.npy    CSR offsets into r1_nodes
    r2_nodes.npy      / r2_offsets.npy — same for the R2 half

The ``.npy`` halves are loaded with ``mmap_mode="r"`` by default and
wrapped as they are: the loaded
:class:`~repro.sampling.collection.RRCollection` holds zero-copy views
of the mapped node arrays, so a load costs O(1) in the number of RR
sets after a structural check of the offsets (1-D int32 nodes and
int64 offsets, ``offsets[0] == 0``, no empty set, ``offsets[-1] ==
nodes.size``, the manifest's theta and its CRC-32 of each offsets
array).  Node ids are range-checked by the collection's first
``build()``; every failure is a
:class:`~repro.exceptions.GraphFormatError`.

Every file is written to a temp file and ``os.replace``-d into place,
the manifest last, so the manifest is the commit point.  Saving into
the directory a live index was loaded from never truncates a mapped
file, and a save cut short at any step leaves the old index or the new
one.  The RR stream only grows, so halves already replaced by an
unfinished save extend the ones the old manifest describes: a load
reads the manifest's theta sets of each half, after checking them
against the manifest's offsets checksum.

A checkpoint that moves only the per-``k`` ``delta / 2^i`` schedule
positions (no new RR sets) appends one record to ``sessions.journal``
instead of rewriting the manifest (:func:`append_sessions`).  A record
is one line: the CRC-32 of its JSON body as 8 hex digits, a space, the
body ``{"<k>": {"queries_made": q, "opt_lower": x}, ...}`` holding the
``k``-s that changed, and ``\n``.  :func:`load_index` replays the
journal into ``manifest["extra"]["sessions"]``, keeping per ``k`` the
entry with the larger ``queries_made`` (both fields only grow), so
replay is idempotent and order-free; a torn or corrupt record fails the
load.  :func:`save_manifest` folds the journal into the manifest it
writes and removes it only after that manifest is in place.

The manifest binds the sketch to its provenance: ``graph_hash`` (a
SHA-256 over the CSR arrays), ``model``, ``seed``, the
:class:`~repro.sampling.service.SamplingPool` state needed to
*continue* the deterministic stream (its next batch index), and the
theta counts.  Loading validates all of it — serving answers from a
sketch sampled on a different graph or model would silently void the
``1 - delta`` guarantee.

An index is a cache: one written by another format version is refused
with a :class:`~repro.exceptions.GraphFormatError` asking for a
rebuild.

Hashing the graph is a SHA-256 over its CSR arrays; a caller that
already holds :func:`graph_fingerprint` (the serve engine computes it
once) passes it as ``graph_hash`` so checkpoints do not re-hash.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Callable, Dict, Optional, Union

import numpy as np

from repro.exceptions import GraphFormatError, ParameterError
from repro.graph.digraph import DiGraph
from repro.sampling.collection import RRCollection

PathLike = Union[str, Path]

#: Bumped on any incompatible change to the on-disk layout or stream
#: (2: every sampler draws through the vectorized kernel; 3: schedule
#: positions may sit in ``sessions.journal``, which an older reader
#: would ignore and so reuse spent ``delta / 2^i`` slices; 4: the
#: kernel's RNG contract v2, skip-and-thin IC and bit-packed batches,
#: so a format-3 stream continued here would not replay bitwise; 5: one
#: stream at every worker count, seeded per kernel batch, whose state
#: is a ``SamplingPool`` batch index).
INDEX_FORMAT_VERSION = 5

MANIFEST_NAME = "manifest.json"

JOURNAL_NAME = "sessions.journal"

_HALVES = ("r1", "r2")


def graph_fingerprint(graph: DiGraph) -> str:
    """SHA-256 fingerprint of a graph's exact CSR content.

    Hashes the node count plus the out-CSR arrays (offsets, targets,
    probabilities) byte-for-byte; the in-CSR arrays are derived from
    them, and the name is deliberately excluded (renaming a graph does
    not change its RR-set distribution).
    """
    digest = hashlib.sha256()
    digest.update(str(graph.n).encode("ascii"))
    for array in (graph.out_offsets, graph.out_targets, graph.out_probs):
        contiguous = np.ascontiguousarray(array)
        digest.update(str(contiguous.dtype.str).encode("ascii"))
        digest.update(contiguous.tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class LoadedIndex:
    """Result of :func:`load_index`: the two halves plus the manifest."""

    r1: RRCollection
    r2: RRCollection
    manifest: Dict[str, Any]


def save_manifest(
    directory: PathLike,
    graph: DiGraph,
    model: str,
    theta1: int,
    theta2: int,
    sampler_state: Dict[str, Any],
    seed: int,
    extra: Optional[Dict[str, Any]] = None,
    graph_hash: Optional[str] = None,
    *,
    offsets_crc32: Dict[str, int],
) -> Dict[str, Any]:
    """Write only the manifest of an index; returns it.

    For callers whose ``.npy`` halves on disk already match
    ``theta1``/``theta2`` (``offsets_crc32`` maps ``"r1"``/``"r2"`` to
    the CRC-32 of each half's offsets array, as the last
    :func:`save_index` wrote it).  The session journal is folded into
    ``extra["sessions"]`` and removed once the manifest is in place; a
    journal that does not replay is dropped, since a writer's own
    schedule already covers every record it appended.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sessions = dict((extra or {}).get("sessions") or {})
    try:
        _replay_journal(directory, sessions)
    except GraphFormatError:
        pass
    if sessions:
        extra = {**(extra or {}), "sessions": sessions}
    manifest: Dict[str, Any] = {
        "version": INDEX_FORMAT_VERSION,
        "graph_hash": graph_hash or graph_fingerprint(graph),
        "graph_name": graph.name,
        "n": graph.n,
        "m": graph.m,
        "model": model.upper(),
        "seed": int(seed),
        "theta1": int(theta1),
        "theta2": int(theta2),
        "offsets_crc32": {name: int(offsets_crc32[name]) for name in _HALVES},
        "sampler_state": sampler_state,
    }
    if extra:
        manifest["extra"] = extra
    # Compact JSON: without indent, json.dumps runs its C encoder.
    data = (json.dumps(manifest) + "\n").encode("utf-8")
    _replace_file(directory / MANIFEST_NAME, lambda handle: handle.write(data))
    try:
        os.unlink(directory / JOURNAL_NAME)
    except FileNotFoundError:
        pass
    return manifest


def _replace_file(path: Path, write: Callable[[IO[bytes]], object]) -> None:
    """Write *path* through a temp file and ``os.replace``.

    A live memory map of the old file (a loaded index wraps one) keeps
    reading the old inode instead of a file truncated under it, and a
    write cut short leaves the old file whole.
    """
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "wb") as handle:
        write(handle)
    os.replace(temp, path)


def save_index(
    directory: PathLike,
    graph: DiGraph,
    model: str,
    r1: RRCollection,
    r2: RRCollection,
    sampler_state: Dict[str, Any],
    seed: int,
    extra: Optional[Dict[str, Any]] = None,
    graph_hash: Optional[str] = None,
) -> Dict[str, Any]:
    """Write an RR-sketch index; returns the manifest written.

    ``sampler_state`` is the stream-continuation state,
    ``SamplingPool.state()``, so a loaded index can keep extending the
    exact same deterministic RR stream at any worker count.  The manifest goes last
    (:func:`save_manifest`), which also compacts the session journal.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    counts = {}
    checksums = {}
    for name, collection in zip(_HALVES, (r1, r2)):
        nodes, offsets = collection.flat()
        for suffix, array in (("nodes", nodes), ("offsets", offsets)):
            _replace_file(
                directory / f"{name}_{suffix}.npy",
                lambda handle, array=array: np.save(handle, array),
            )
        counts[name] = len(collection)
        checksums[name] = zlib.crc32(offsets.data)
    return save_manifest(
        directory,
        graph=graph,
        model=model,
        theta1=counts["r1"],
        theta2=counts["r2"],
        sampler_state=sampler_state,
        seed=seed,
        extra=extra,
        graph_hash=graph_hash,
        offsets_crc32=checksums,
    )


def append_sessions(
    directory: PathLike, changed: Dict[str, Dict[str, Any]]
) -> int:
    """Append one schedule record to the index's session journal.

    *changed* maps ``str(k)`` to ``{"queries_made", "opt_lower"}`` for
    the ``k``-s whose schedule moved since the index was last written.
    One ``O_APPEND`` open, write and close, with no fsync and no file
    descriptor kept open.  Returns the journal's size after the append.
    """
    body = json.dumps(changed, separators=(",", ":")).encode("utf-8")
    record = memoryview(b"%08x %s\n" % (zlib.crc32(body), body))
    fd = os.open(
        Path(directory) / JOURNAL_NAME,
        os.O_WRONLY | os.O_APPEND | os.O_CREAT,
        0o644,
    )
    try:
        while record:
            record = record[os.write(fd, record):]
        return os.lseek(fd, 0, os.SEEK_CUR)
    finally:
        os.close(fd)


def _replay_journal(directory: Path, sessions: Dict[str, Any]) -> None:
    """Merge the session journal's records into *sessions* in place.

    Per ``k`` the entry with the larger ``queries_made`` wins.  A
    record whose checksum does not match, or a last record without its
    newline (a torn append), raises :class:`GraphFormatError`.
    """
    try:
        data = (directory / JOURNAL_NAME).read_bytes()
    except FileNotFoundError:
        return
    records = data.split(b"\n")
    if records.pop():
        raise _rebuild(directory, f"{JOURNAL_NAME} ends in a torn record")
    for number, record in enumerate(records, start=1):
        checksum, _, body = record.partition(b" ")
        try:
            if checksum != b"%08x" % zlib.crc32(body):
                raise ValueError("checksum mismatch")
            for k, entry in json.loads(body).items():
                key, queries = str(int(k)), int(entry["queries_made"])
                known = sessions.get(key)
                if known is None or queries > int(known["queries_made"]):
                    sessions[key] = {
                        "queries_made": queries,
                        "opt_lower": float(entry["opt_lower"]),
                    }
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise _rebuild(
                directory, f"{JOURNAL_NAME} record {number} is corrupt: {exc}"
            )


def _rebuild(directory: Path, reason: str) -> GraphFormatError:
    return GraphFormatError(
        f"{directory}: {reason}; the index is a cache — rebuild the index"
    )


def load_index(
    directory: PathLike,
    graph: DiGraph,
    mmap: bool = True,
    graph_hash: Optional[str] = None,
) -> LoadedIndex:
    """Load and validate an index previously written by :func:`save_index`.

    *graph* must hash to the manifest's ``graph_hash``; with ``mmap``
    (the default) the node arrays are memory-mapped read-only and the
    collections hold zero-copy views into them.  The returned
    manifest's ``extra["sessions"]`` includes the replayed session
    journal.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise GraphFormatError(f"{directory}: no {MANIFEST_NAME} found")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise GraphFormatError(f"{manifest_path}: invalid JSON: {exc}")
    if manifest.get("version") != INDEX_FORMAT_VERSION:
        raise _rebuild(
            directory,
            f"index format version {manifest.get('version')} is not the "
            f"supported {INDEX_FORMAT_VERSION}",
        )
    fingerprint = graph_hash or graph_fingerprint(graph)
    if manifest.get("graph_hash") != fingerprint:
        raise ParameterError(
            f"index at {directory} was built on graph "
            f"{manifest.get('graph_name')!r} (hash "
            f"{str(manifest.get('graph_hash'))[:12]}...); the provided "
            f"graph hashes to {fingerprint[:12]}... — serving from a "
            "mismatched sketch would void the guarantee"
        )
    sessions = dict(manifest.get("extra", {}).get("sessions", {}))
    _replay_journal(directory, sessions)
    if sessions:
        manifest.setdefault("extra", {})["sessions"] = sessions
    halves = {}
    mmap_mode = "r" if mmap else None
    for name in _HALVES:
        try:
            nodes = np.load(directory / f"{name}_nodes.npy", mmap_mode=mmap_mode)
            offsets = np.load(directory / f"{name}_offsets.npy")
        except (OSError, ValueError) as exc:
            raise GraphFormatError(
                f"{directory}: cannot read the {name} half: {exc}"
            )
        halves[name] = _wrap_half(
            directory, name, graph.n, nodes, offsets,
            int(manifest[f"theta{name[1]}"]),
            int(manifest["offsets_crc32"][name]),
        )
    return LoadedIndex(r1=halves["r1"], r2=halves["r2"], manifest=manifest)


def _wrap_half(
    directory: Path,
    name: str,
    n: int,
    nodes: np.ndarray,
    offsets: np.ndarray,
    expected: int,
    checksum: int,
) -> RRCollection:
    """Check one half's first *expected* sets and wrap them in O(1).

    Files holding more sets come from a save cut short after this half
    was replaced: the stream only grows, so its first *expected* sets
    are the ones the manifest committed, as the offsets checksum
    confirms.  ``np.asarray`` drops the ``np.memmap`` subclass, so
    later numpy calls on the views skip its hooks; node ids are
    range-checked by the collection's first ``build()``.
    """
    nodes = np.asarray(nodes)
    offsets = np.asarray(offsets)
    if (
        nodes.ndim != 1
        or offsets.ndim != 1
        or nodes.dtype != np.int32
        or offsets.dtype != np.int64
    ):
        raise GraphFormatError(
            f"{directory}: the {name} half must be 1-D int32 nodes and "
            f"int64 offsets, got {nodes.dtype}{list(nodes.shape)} and "
            f"{offsets.dtype}{list(offsets.shape)}"
        )
    if offsets.shape[0] - 1 < expected:
        raise GraphFormatError(
            f"{directory}: manifest promises {expected} RR sets in "
            f"{name}, files contain {offsets.shape[0] - 1}"
        )
    offsets = offsets[: expected + 1]
    if offsets[-1] < nodes.shape[0]:
        nodes = nodes[: offsets[-1]]
    try:
        collection = RRCollection.from_flat(n, nodes, offsets)
    except ParameterError as exc:
        raise GraphFormatError(f"{directory}: corrupt {name} half: {exc}")
    if zlib.crc32(offsets.data) != checksum:
        raise GraphFormatError(
            f"{directory}: the {name} offsets do not match the manifest's "
            "checksum"
        )
    return collection
