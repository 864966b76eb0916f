"""Persistence for RR-set collections (``.npz`` format).

Online processing sessions can be long-lived; persisting the sampled
RR sets lets a session survive process restarts without regenerating
(and therefore without changing) its guarantees.  The format is a
plain numpy ``.npz`` archive: the member nodes flattened into one
array plus CSR offsets and the node-universe size.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.exceptions import GraphFormatError, ParameterError
from repro.sampling.collection import RRCollection

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def save_collection(collection: RRCollection, path: PathLike) -> None:
    """Write *collection* to ``path`` (a ``.npz`` archive)."""
    nodes, offsets = collection.flat()
    np.savez_compressed(
        Path(path),
        version=np.int64(_FORMAT_VERSION),
        n=np.int64(collection.n),
        rr_offsets=offsets,
        rr_nodes=nodes,
    )


def load_collection(path: PathLike) -> RRCollection:
    """Read a collection previously written by :func:`save_collection`."""
    path = Path(path)
    try:
        with np.load(path) as archive:
            version = int(archive["version"])
            if version != _FORMAT_VERSION:
                raise GraphFormatError(
                    f"{path}: unsupported collection format version {version}"
                )
            n = int(archive["n"])
            offsets = archive["rr_offsets"]
            nodes = archive["rr_nodes"]
        return RRCollection.from_flat(n, nodes, offsets)
    except (KeyError, ValueError, OSError, ParameterError) as exc:
        raise GraphFormatError(f"{path}: not a valid RR collection file: {exc}")
