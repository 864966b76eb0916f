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
                      sampler stream state (format below)
    r1_nodes.npy      flattened member node ids of the R1 half
    r1_offsets.npy    CSR offsets into r1_nodes
    r2_nodes.npy      / r2_offsets.npy — same for the R2 half

The ``.npy`` halves are loaded with ``mmap_mode="r"`` by default, so a
multi-hundred-MB sketch maps lazily instead of being read up front;
every RR set handed to :class:`~repro.sampling.collection.RRCollection`
is a zero-copy view into the mapped file.

The manifest binds the sketch to its provenance: ``graph_hash`` (a
SHA-256 over the CSR arrays), ``model``, ``seed``, the chunk policy /
RNG state needed to *continue* the deterministic stream, and the
theta counts.  Loading validates all of it — serving answers from a
sketch sampled on a different graph or model would silently void the
``1 - delta`` guarantee.

An index is a cache: one written by another format version, or whose
stream state predates the one production sampler (a ``"serial"``
sampler state, or a pool state without a ``kernel``), is refused with
a :class:`~repro.exceptions.GraphFormatError` asking for a rebuild.

Hashing the graph is a SHA-256 over its CSR arrays; a caller that
already holds :func:`graph_fingerprint` (the serve engine computes it
once) passes it as ``graph_hash`` so checkpoints do not re-hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.exceptions import GraphFormatError, ParameterError
from repro.graph.digraph import DiGraph
from repro.sampling.collection import RRCollection

PathLike = Union[str, Path]

#: Bumped on any incompatible change to the on-disk layout or stream
#: (2: every sampler draws through the vectorized kernel).
INDEX_FORMAT_VERSION = 2

MANIFEST_NAME = "manifest.json"

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


def _collection_from_arrays(
    n: int, nodes: np.ndarray, offsets: np.ndarray
) -> RRCollection:
    collection = RRCollection(n)
    for i in range(offsets.shape[0] - 1):
        collection.append(nodes[offsets[i] : offsets[i + 1]])
    return collection


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
) -> Dict[str, Any]:
    """Write only the manifest of an index; returns it.

    For callers whose ``.npy`` halves on disk already match
    ``theta1``/``theta2`` and only manifest-borne state moved — e.g. a
    satisfied repeat query advanced a session's ``delta / 2^i``
    schedule position without sampling a single RR set.  Rewriting the
    manifest alone keeps such checkpoints cheap on the serving path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
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
        "sampler_state": sampler_state,
    }
    if extra:
        manifest["extra"] = extra
    path = directory / MANIFEST_NAME
    # Compact JSON: without indent, json.dumps runs its C encoder.
    path.write_text(json.dumps(manifest) + "\n", encoding="utf-8")
    return manifest


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

    ``sampler_state`` is the stream-continuation state — either
    ``SamplingPool.state()`` (``kind: "pool"``) or ``RRSampler.state()``
    (``kind: "serial-kernel"``) — so a loaded index can keep extending
    the exact same deterministic RR stream.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    counts = {}
    for name, collection in zip(_HALVES, (r1, r2)):
        collection.build()
        np.save(directory / f"{name}_nodes.npy", collection.rr_nodes)
        np.save(directory / f"{name}_offsets.npy", collection.rr_offsets)
        counts[name] = len(collection)
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
    collections hold zero-copy views into them.
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
    state = manifest.get("sampler_state") or {}
    if state.get("kind") == "serial" or (
        state.get("kind") == "pool" and not state.get("kernel")
    ):
        raise _rebuild(
            directory, "its RR stream was drawn by a removed legacy sampler"
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
        collection = _collection_from_arrays(graph.n, nodes, offsets)
        expected = int(manifest[f"theta{name[1]}"])
        if len(collection) != expected:
            raise GraphFormatError(
                f"{directory}: manifest promises {expected} RR sets in "
                f"{name}, files contain {len(collection)}"
            )
        halves[name] = collection
    return LoadedIndex(r1=halves["r1"], r2=halves["r2"], manifest=manifest)
