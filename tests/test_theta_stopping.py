"""Property tests for the sample-size formulas and the stopping rule.

Hypothesis drives the Eq. 16/17 formulas and ``theta_sadeh`` across
the whole parameter box:

* the Sadeh cap never exceeds the paper's ``theta_max`` (Eq. 16);
* it is monotone non-increasing in ``epsilon``, ``delta``, and the
  certified ``opt_lower``;
* ``i_max`` is consistent with the ``theta_0`` doubling schedule
  (Eq. 17): ``theta_0 * 2^i_max >= theta_max > theta_0 * 2^(i_max-1)``
  whenever more than one doubling is needed.

Deterministic integration tests then check that ``OPIMC`` wires the
rule correctly: paired runs with ``stopping="sadeh"`` never sample
more RR sets than ``stopping="paper"``, and always sample strictly
fewer than ``theta_max``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.opimc import STOPPING_RULES, OPIMC, opim_c
from repro.core.theta import (
    SADEH_K_CONSTANT,
    i_max_iterations,
    log_binomial,
    theta_0,
    theta_max,
    theta_sadeh,
)
from repro.exceptions import ParameterError

#: Relative slack for float comparisons between the two formulas.
REL_TOL = 1e-9

ns = st.integers(min_value=2, max_value=100_000)
epsilons = st.floats(min_value=0.01, max_value=0.95)
deltas = st.floats(min_value=1e-6, max_value=0.49)


@st.composite
def nk_pairs(draw):
    n = draw(ns)
    k = draw(st.integers(min_value=1, max_value=min(n, 64)))
    return n, k


class TestThetaSadehProperties:
    @given(nk=nk_pairs(), epsilon=epsilons, delta=deltas)
    def test_never_exceeds_paper_theta_max(self, nk, epsilon, delta):
        n, k = nk
        sadeh = theta_sadeh(n, k, epsilon, delta)
        paper = theta_max(n, k, epsilon, delta)
        assert sadeh <= paper * (1.0 + REL_TOL)

    @given(
        nk=nk_pairs(),
        epsilon=epsilons,
        delta=deltas,
        opt_lower=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_opt_lower_never_raises_the_cap(
        self, nk, epsilon, delta, opt_lower
    ):
        n, k = nk
        base = theta_sadeh(n, k, epsilon, delta)
        tightened = theta_sadeh(n, k, epsilon, delta, opt_lower=opt_lower)
        assert tightened <= base * (1.0 + REL_TOL)
        assert tightened > 0.0

    @given(
        nk=nk_pairs(),
        delta=deltas,
        eps_pair=st.tuples(epsilons, epsilons),
    )
    def test_monotone_in_epsilon(self, nk, delta, eps_pair):
        n, k = nk
        lo, hi = sorted(eps_pair)
        assert theta_sadeh(n, k, hi, delta) <= theta_sadeh(
            n, k, lo, delta
        ) * (1.0 + REL_TOL)

    @given(
        nk=nk_pairs(),
        epsilon=epsilons,
        delta_pair=st.tuples(deltas, deltas),
    )
    def test_monotone_in_delta(self, nk, epsilon, delta_pair):
        n, k = nk
        lo, hi = sorted(delta_pair)
        assert theta_sadeh(n, k, epsilon, hi) <= theta_sadeh(
            n, k, epsilon, lo
        ) * (1.0 + REL_TOL)

    @given(nk=nk_pairs(), epsilon=epsilons, delta=deltas)
    def test_union_term_is_the_min_of_both_analyses(
        self, nk, epsilon, delta
    ):
        """When ``ln C(n, k) <= k(1 + ln 2)`` the two formulas agree
        exactly (the Sadeh term only ever *replaces* a larger one)."""
        n, k = nk
        if log_binomial(n, k) <= SADEH_K_CONSTANT * k:
            assert theta_sadeh(n, k, epsilon, delta) == pytest.approx(
                theta_max(n, k, epsilon, delta), rel=1e-12
            )

    def test_rejects_negative_opt_lower(self):
        with pytest.raises(ParameterError):
            theta_sadeh(100, 2, 0.1, 0.1, opt_lower=-1.0)


class TestDoublingScheduleConsistency:
    @given(nk=nk_pairs(), epsilon=epsilons, delta=deltas)
    def test_theta_0_matches_eq_17(self, nk, epsilon, delta):
        n, k = nk
        expected = (
            theta_max(n, k, epsilon, delta) * epsilon * epsilon * k / n
        )
        assert theta_0(n, k, epsilon, delta) == pytest.approx(
            expected, rel=1e-12
        )

    @given(nk=nk_pairs(), epsilon=epsilons, delta=deltas)
    def test_i_max_brackets_theta_max(self, nk, epsilon, delta):
        """``i_max`` doublings from ``theta_0`` reach ``theta_max``,
        and ``i_max`` is minimal (up to the >= 1 floor)."""
        n, k = nk
        t_max = theta_max(n, k, epsilon, delta)
        t_0 = theta_0(n, k, epsilon, delta)
        i_max = i_max_iterations(n, k, epsilon, delta)
        assert i_max >= 1
        assert t_0 * 2.0**i_max >= t_max * (1.0 - REL_TOL)
        if i_max > 1:
            assert t_0 * 2.0 ** (i_max - 1) < t_max * (1.0 + REL_TOL)


class TestOPIMCStoppingIntegration:
    def test_rejects_unknown_stopping_rule(self, tiny_weighted_graph):
        with pytest.raises(ParameterError):
            OPIMC(tiny_weighted_graph, "IC", stopping="aggressive")
        assert set(STOPPING_RULES) == {"paper", "sadeh"}

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_sadeh_never_samples_more_paired(
        self, tiny_weighted_graph, seed
    ):
        """Same seed, same graph: the capped run can only stop earlier."""
        counts = {}
        for rule in STOPPING_RULES:
            result = opim_c(
                tiny_weighted_graph,
                "IC",
                k=2,
                epsilon=0.3,
                delta=0.25,
                seed=seed,
                stopping=rule,
            )
            counts[rule] = result.num_rr_sets
            assert result.extra["stopping"] == rule
        assert counts["sadeh"] <= counts["paper"]

    def test_sadeh_samples_strictly_below_theta_max(
        self, tiny_weighted_graph, small_graph
    ):
        """Acceptance criterion: ``stopping="sadeh"`` stays strictly
        under the paper's Eq. 16 worst case on every bench graph."""
        for graph in (tiny_weighted_graph, small_graph):
            result = opim_c(
                graph,
                "IC",
                k=2,
                epsilon=0.3,
                delta=0.25,
                seed=42,
                stopping="sadeh",
            )
            t_max = theta_max(graph.n, 2, 0.3, 0.25)
            assert result.num_rr_sets < t_max
            assert result.extra["theta_cap"] <= t_max

    def test_cap_binds_in_hard_regime(self, small_graph):
        """With the loose vanilla deviation bound and tight epsilon
        the collections grow far enough for the Sadeh cap to clamp
        them: both stay below the cap, which stays below Eq. 16."""
        result = opim_c(
            small_graph,
            "IC",
            k=2,
            epsilon=0.05,
            delta=0.25,
            seed=7,
            bound="vanilla",
            stopping="sadeh",
        )
        t_max = theta_max(small_graph.n, 2, 0.05, 0.25)
        assert result.extra["theta_cap"] < t_max
        # The cap bounds each collection's size (num_rr_sets counts
        # R1 and R2 together).
        final = result.extra["alpha_trajectory"][-1]
        cap_ceiling = math.ceil(result.extra["theta_cap"])
        assert final["theta1"] <= cap_ceiling
        assert final["theta2"] <= cap_ceiling
