"""Common interface for diffusion models.

A diffusion model knows how to simulate one forward cascade from a
seed set (RR sets are drawn by :mod:`repro.sampling.kernel`); this
module defines the protocol and a small registry keyed by the names
used throughout the paper ("IC", "LT").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Type

import numpy as np

from repro.exceptions import ParameterError

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.digraph import DiGraph


class DiffusionModel:
    """Abstract base for diffusion models bound to a weighted graph."""

    #: Registry name, e.g. ``"IC"``; subclasses set this.
    name: str = ""

    def __init__(self, graph: "DiGraph") -> None:
        from repro.graph.digraph import DiGraph  # local to avoid cycle

        if not isinstance(graph, DiGraph):
            raise TypeError(f"graph must be a DiGraph, got {type(graph)!r}")
        if not graph.weighted:
            raise ParameterError(
                "graph has no edge probabilities; apply a weighting scheme "
                "from repro.graph.weights first"
            )
        self.graph = graph

    # ------------------------------------------------------------------
    def simulate(self, seeds, rng: np.random.Generator) -> np.ndarray:
        """Run one forward cascade from *seeds*.

        Returns the array of activated node ids (including the seeds).
        """
        raise NotImplementedError


_REGISTRY: Dict[str, Type[DiffusionModel]] = {}


def register_model(cls: Type[DiffusionModel]) -> Type[DiffusionModel]:
    """Class decorator adding a model to the name registry."""
    if not cls.name:
        raise ValueError("diffusion model classes must define a name")
    _REGISTRY[cls.name.upper()] = cls
    return cls


def get_model(name: str, graph: "DiGraph") -> DiffusionModel:
    """Instantiate a registered model ("IC" or "LT") on *graph*."""
    try:
        cls = _REGISTRY[name.upper()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ParameterError(f"unknown diffusion model {name!r}; known: {known}")
    return cls(graph)
