"""Result records returned by the influence-maximization algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True)
class OnlineSnapshot:
    """What an online algorithm reports when the user pauses it.

    Attributes
    ----------
    seeds:
        The seed set ``S*`` (selection order preserved).
    alpha:
        Reported approximation guarantee; ``S*`` is an
        ``alpha``-approximation w.p. >= ``1 - delta``.
    variant:
        Which bound produced ``alpha`` (``"vanilla"``/``"greedy"``/
        ``"leskovec"`` for the OPIM family, ``"borgs"``, or
        ``"adoption:<alg>"``).
    num_rr_sets:
        Total RR sets generated when the snapshot was taken
        (``theta_1 + theta_2`` for OPIM).
    theta1, theta2:
        Sizes of the nominator/judge collections (OPIM only).
    sigma_low, sigma_up:
        The spread bounds whose ratio is ``alpha`` (OPIM only).
    coverage_r1, coverage_r2:
        ``Lambda_1(S*)`` and ``Lambda_2(S*)`` (OPIM only).
    edges_examined:
        Cumulative edge-traversal cost of sampling so far.
    elapsed:
        Wall-clock seconds of algorithm work so far.
    metadata:
        Observability payload.  OPIM populates ``"alpha_row"`` (this
        snapshot's ``(theta1, theta2, sigma_low, sigma_up, alpha)``
        telemetry row).  The rows of every snapshot so far live on the
        producing instance's ``alpha_trajectory``; a snapshot does not
        copy them, which would cost O(q) per query and O(q^2) over a
        long-lived session.
    """

    seeds: List[int]
    alpha: float
    variant: str
    num_rr_sets: int
    theta1: int = 0
    theta2: int = 0
    sigma_low: float = 0.0
    sigma_up: float = 0.0
    coverage_r1: int = 0
    coverage_r2: int = 0
    edges_examined: int = 0
    elapsed: float = 0.0
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class IMResult:
    """Output of a conventional influence-maximization run.

    ``seeds`` carries a ``(1 - 1/e - epsilon)``-approximation guarantee
    w.p. >= ``1 - delta`` (per the respective algorithm's analysis).

    OPIM-C additionally stores its doubling-loop telemetry under
    ``extra["alpha_trajectory"]``: one
    ``{iteration, theta1, theta2, sigma_low, sigma_up, alpha}`` row per
    iteration, matching the ``alpha_row`` trace events.
    """

    algorithm: str
    seeds: List[int]
    k: int
    epsilon: float
    delta: float
    num_rr_sets: int
    elapsed: float
    iterations: int = 1
    alpha_achieved: Optional[float] = None
    edges_examined: int = 0
    extra: dict = field(default_factory=dict)
