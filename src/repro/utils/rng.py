"""Random-number-generator discipline.

Every stochastic component in the library accepts ``seed`` arguments of
type ``int | numpy.random.Generator | numpy.random.SeedSequence | None``
and normalizes them through :func:`as_generator`.  Experiments that need
several independent streams (e.g. one per algorithm sharing the same
graph) use :func:`spawn_generators`, which derives child generators from
a single ``SeedSequence`` so runs are reproducible yet uncorrelated.

Replayable auto-seeding
-----------------------
Passing ``seed=None`` must not mean "unreproducible".  Instead of an
anonymous OS-seeded generator, :func:`as_generator` draws one explicit
entropy value from the OS (via ``numpy.random.SeedSequence()``), records
it in a module-level log, and seeds the generator from it.  Any run can
then be replayed by reading the entropy back — from
:func:`last_auto_entropy` or the full :func:`auto_entropy_log` — and
passing it as the seed of a later run:

>>> g1 = as_generator(None)
>>> replay = as_generator(last_auto_entropy())
>>> bool((g1.integers(0, 100, 5) == replay.integers(0, 100, 5)).all())
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, np.random.SeedSequence, None]


@dataclass(frozen=True)
class AutoSeedRecord:
    """One auto-seeded generator: where it came from, how to replay it."""

    index: int
    entropy: int
    origin: str  # "as_generator" or "spawn_generators"


_AUTO_SEED_LOG: List[AutoSeedRecord] = []


def _record_entropy(sequence: np.random.SeedSequence, origin: str) -> None:
    entropy = sequence.entropy
    if isinstance(entropy, (tuple, list)):  # pragma: no cover - numpy quirk
        entropy = entropy[0]
    _AUTO_SEED_LOG.append(
        AutoSeedRecord(
            index=len(_AUTO_SEED_LOG), entropy=int(entropy), origin=origin
        )
    )


def auto_entropy_log() -> Tuple[AutoSeedRecord, ...]:
    """All auto-drawn seeds of this process, oldest first."""
    return tuple(_AUTO_SEED_LOG)


def last_auto_entropy() -> Optional[int]:
    """Entropy of the most recent auto-seeded generator (None if none)."""
    return _AUTO_SEED_LOG[-1].entropy if _AUTO_SEED_LOG else None


def fresh_entropy(origin: str = "fresh_entropy") -> int:
    """Draw one OS entropy value, record it, and return it as an int.

    The replayable counterpart of "no seed given" for components that
    need a *root integer seed* rather than a ``Generator`` (e.g. an RR
    stream derives its per-batch seeds from it).  The value
    lands in :func:`auto_entropy_log` like every other auto seed.
    """
    sequence = np.random.SeedSequence()
    _record_entropy(sequence, origin)
    return _AUTO_SEED_LOG[-1].entropy


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Normalize *seed* into a ``numpy.random.Generator``.

    Passing an existing ``Generator`` returns it unchanged (shared
    state), so callers can thread one generator through a pipeline.
    Passing ``None`` draws one explicit entropy value from the OS,
    records it in :func:`auto_entropy_log`, and seeds from it — the
    resulting stream is fresh but replayable.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None:
        sequence = np.random.SeedSequence()
        _record_entropy(sequence, "as_generator")
        return np.random.default_rng(sequence)
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(
        f"seed must be int, Generator, SeedSequence or None; got {type(seed)!r}"
    )


def spawn_generators(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Return *count* independent generators derived from *seed*.

    When *seed* is already a ``Generator``, children are spawned from its
    internal bit generator's seed sequence when available, otherwise from
    integers drawn from it (still reproducible given the parent state).
    When *seed* is ``None``, the parent entropy is drawn once from the
    OS and recorded in :func:`auto_entropy_log`, so the whole family of
    children can be replayed from one logged value.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.SeedSequence):
        return [np.random.default_rng(s) for s in seed.spawn(count)]
    if isinstance(seed, np.random.Generator):
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    if seed is None:
        sequence = np.random.SeedSequence()
        _record_entropy(sequence, "spawn_generators")
    else:
        sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in sequence.spawn(count)]
