"""StabilityGuard: live ping-pong veto semantics."""

import pytest

from repro.lifecycle import StabilityGuard


def make_guard(window, max_bounces):
    """``(guard, records)``: a guard and the list its sink appends to."""
    records = []
    guard = StabilityGuard(window=window, max_bounces=max_bounces,
                           events=lambda *record: records.append(record))
    return guard, records


class TestAllow:
    def test_first_move_and_non_reversals_pass(self):
        guard, records = make_guard(window=10.0, max_bounces=1)
        assert guard.allow("/a", 0, 1, 1.0)
        guard.record("/a", 0, 1, 1.0)
        # A different unit, and a non-reversing follow-up, are both fine.
        assert guard.allow("/b", 1, 0, 2.0)
        assert guard.allow("/a", 1, 2, 2.0)
        assert records == []

    def test_reversal_vetoed_at_budget_one(self):
        guard, records = make_guard(window=10.0, max_bounces=1)
        guard.record("/a", 0, 1, 1.0)
        assert not guard.allow("/a", 1, 0, 2.0)
        assert len(records) == 1

    def test_budget_two_allows_one_bounce_then_vetoes(self):
        guard, records = make_guard(window=100.0, max_bounces=2)
        guard.record("/a", 0, 1, 1.0)
        assert guard.allow("/a", 1, 0, 2.0)  # first reversal: within budget
        guard.record("/a", 1, 0, 2.0)
        assert not guard.allow("/a", 0, 1, 3.0)  # second reversal: vetoed
        assert len(records) == 1

    def test_window_pruning_forgets_old_moves(self):
        guard, _records = make_guard(window=5.0, max_bounces=1)
        guard.record("/a", 0, 1, 1.0)
        assert not guard.allow("/a", 1, 0, 2.0)
        # By t=20 the original move fell out of the window: not a reversal.
        assert guard.allow("/a", 1, 0, 20.0)


class TestEventsAndViews:
    def test_veto_emits_event_and_is_counted_since(self):
        guard, records = make_guard(window=10.0, max_bounces=1)
        guard.record("/a", 0, 1, 1.0)
        guard.allow("/a", 1, 0, 2.0)
        ((now, kind, rank, detail),) = records
        assert (now, kind, rank) == (2.0, "guard-veto", 1)
        assert "/a" in detail and "mds1->mds0" in detail
        assert sum(1 for record in records if record[0] >= 0.0) == 1
        assert sum(1 for record in records if record[0] >= 3.0) == 0


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_guard(window=0.0, max_bounces=2)
        with pytest.raises(ValueError):
            make_guard(window=60.0, max_bounces=0)
