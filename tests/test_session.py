"""Tests for OPIMSession: simultaneous-guarantee scheduling and
stopping conditions (paper, Section 4 'Discussions')."""

from __future__ import annotations

import pytest

from repro.core.session import OPIMSession
from repro.exceptions import ParameterError


@pytest.fixture
def session(medium_graph):
    return OPIMSession(medium_graph, "IC", k=4, delta=0.1, seed=17)


class TestDeltaSchedule:
    def test_schedule_halves_per_query(self, session):
        assert session.next_query_delta() == pytest.approx(0.05)
        session.extend(400)
        session.query()
        assert session.next_query_delta() == pytest.approx(0.025)
        session.query()
        assert session.next_query_delta() == pytest.approx(0.0125)

    def test_schedule_sums_within_delta(self, session):
        total = sum(session.delta / 2 ** (i + 1) for i in range(100))
        assert total <= session.delta

    def test_query_history_recorded(self, session):
        session.extend(400)
        session.query()
        session.extend(400)
        session.query()
        assert len(session.history) == 2
        assert session.queries_made == 2

    def test_claims_continue_the_restored_numbering(self, session):
        assert session.last_claim() is None
        session.restore_schedule(2)
        session.extend(400)
        session.query()
        session.query()
        claims = session.guarantee_claims()
        assert [c["query"] for c in claims] == [3, 4]
        assert claims[0]["query_delta"] == pytest.approx(0.1 / 8)
        assert session.last_claim() == claims[-1]
        assert claims[-1]["query"] == session.queries_made

    def test_later_queries_pay_for_tighter_delta(self, medium_graph):
        """With the same data, a smaller per-query delta gives a lower
        alpha — the price of the joint guarantee."""
        scheduled = OPIMSession(medium_graph, "IC", k=4, delta=0.1, seed=23)
        scheduled.extend(2000)
        alpha_scheduled = scheduled.query().alpha

        plain = OPIMSession(medium_graph, "IC", k=4, delta=0.1, seed=23)
        plain.extend(2000)
        alpha_plain = plain.online.query().alpha  # full delta, no schedule
        assert alpha_scheduled <= alpha_plain + 1e-12

    def test_default_delta(self, medium_graph):
        session = OPIMSession(medium_graph, "IC", k=2)
        assert session.delta == pytest.approx(1.0 / medium_graph.n)


class TestRunUntil:
    def test_requires_some_condition(self, session):
        with pytest.raises(ParameterError):
            session.run_until()

    def test_invalid_alpha_target(self, session):
        with pytest.raises(ParameterError):
            session.run_until(alpha_target=1.5)

    def test_invalid_step(self, session):
        with pytest.raises(ParameterError):
            session.run_until(alpha_target=0.5, step=1)

    def test_stops_on_alpha(self, session):
        result = session.run_until(alpha_target=0.3, step=500)
        assert result.stop.kind == "alpha"
        assert result.snapshot.alpha >= 0.3

    def test_stops_on_rr_budget(self, session):
        result = session.run_until(alpha_target=0.9999, rr_budget=3000, step=1000)
        assert result.stop.kind in ("rr_budget", "alpha")
        assert session.num_rr_sets <= 3000

    def test_stops_on_time_budget(self, session):
        result = session.run_until(time_budget=1e-9, step=200)
        assert result.stop.kind == "time_budget"

    def test_stops_on_max_queries(self, session):
        result = session.run_until(alpha_target=0.99999, step=200, max_queries=2)
        assert result.stop.kind == "max_queries"
        assert session.queries_made == 2

    def test_history_in_result(self, session):
        result = session.run_until(alpha_target=0.99, step=400, max_queries=3)
        assert result.history == session.history
        assert result.snapshot is result.history[-1]

    def test_step_doubles(self, session):
        session.run_until(alpha_target=0.99999, step=200, max_queries=3)
        # Stream grew by 200 + 400 + 800 = 1400.
        assert session.num_rr_sets == 1400

    def test_budget_smaller_than_stream_still_queries(self, session):
        session.extend(1000)
        result = session.run_until(rr_budget=500)
        assert result.stop.kind == "rr_budget"
        assert result.snapshot.num_rr_sets == 1000
