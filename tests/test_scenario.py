"""The scenario runner's pure pieces: flap arithmetic and the per-rank
outcome merge rule."""

import pytest

from repro.cluster.scenario import LinkFlaps, merge_outcomes, probe_deadline


class TestFlapSchedule:
    def test_end_and_probe_deadline(self):
        flaps = LinkFlaps(hub=0, start_ns=10_000.0, cycles=2,
                          period_ns=40_000.0, down_ns=15_000.0)
        assert flaps.end_ns == 65_000.0
        assert probe_deadline(30_000.0, flaps) == 95_000.0
        assert probe_deadline(90_000.0, flaps) == 120_000.0

    def test_no_flaps(self):
        idle = LinkFlaps(hub=0, start_ns=5.0, cycles=0, period_ns=1.0,
                         down_ns=1.0)
        assert idle.end_ns == 0.0
        assert probe_deadline(1_000.0, None) == 31_000.0


class TestMergeOutcomes:
    def test_rank_local_and_replicated_fields(self):
        merged = merge_outcomes(
            {0: {"served": 5, "segments": {}, "membership": {"e": 1}},
             1: {"segments": {1: "a", 2: "b"}, "membership": {"e": 1}}})
        assert merged == {"served": 5, "segments": {1: "a", 2: "b"},
                          "membership": {"e": 1}}

    def test_replicated_disagreement_raises(self):
        with pytest.raises(RuntimeError, match="differs"):
            merge_outcomes({0: {"membership": {"e": 1}},
                            1: {"membership": {"e": 2}}})

    def test_missing_replicated_field_raises(self):
        with pytest.raises(RuntimeError, match="did not report"):
            merge_outcomes({0: {"membership": {}}, 1: {}})

    def test_rank_local_field_on_two_ranks_raises(self):
        with pytest.raises(RuntimeError, match="more than one rank"):
            merge_outcomes({0: {"served": 1, "membership": {}},
                            1: {"served": 1, "membership": {}}})

    def test_overlapping_per_node_dicts_raise(self):
        with pytest.raises(RuntimeError, match="more than one rank"):
            merge_outcomes({0: {"segments": {1: "a"}, "membership": {}},
                            1: {"segments": {1: "a"}, "membership": {}}})
