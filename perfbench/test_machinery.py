"""Tests of the benchmark's own machinery: span arithmetic, name restoration
after tracing, the golden-output check and the exact abort probabilities.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import math
import sys

import pytest

import run
from spans import Totals, Tracer, self_times, snapshot, union_length, unrestored

sys.path.insert(0, str(run.SRC))


def span(name, start, end, parent, trial=-1):
    return (name, start, end, parent, trial)


class TestSelfTime:
    def test_union_merges_overlaps_and_clips(self):
        assert union_length([(1, 4), (3, 6), (8, 9)], 0, 10) == 6
        assert union_length([(-2, 1), (9, 12)], 0, 10) == 2
        assert union_length([], 0, 10) == 0

    def test_nested_spans(self):
        spans = [
            span("root", 0.0, 10.0, -1),
            span("a", 1.0, 4.0, 0),
            span("a.inner", 2.0, 3.0, 1),
            span("b", 5.0, 7.5, 0),
            span("c", 8.0, 9.0, 0),
        ]
        assert self_times(spans) == pytest.approx([10 - 3 - 2.5 - 1, 3 - 1, 1, 2.5, 1])

    def test_self_time_never_counts_a_grandchild_twice(self):
        spans = [span("root", 0.0, 4.0, -1), span("child", 0.0, 4.0, 0),
                 span("grandchild", 1.0, 2.0, 1)]
        assert self_times(spans) == pytest.approx([0.0, 3.0, 1.0])

    def test_totals_split_by_root_kind_and_call_order(self):
        tracer = Tracer(targets=[])
        tracer.root_kind = {0: "trial", 1: "trial", 2: "replay"}
        tracer.spans = [
            span("batch", 0.0, 20.0, -1),
            span("trial", 1.0, 9.0, 0, 0),
            span("stage", 2.0, 3.0, 1, 0),
            span("stage", 4.0, 7.0, 1, 0),
            span("trial", 10.0, 12.0, 0, 1),
            span("stage", 10.5, 11.0, 4, 1),
            span("replay", 13.0, 14.0, -1, 2),
        ]
        trials = Totals(tracer, "trial")
        assert trials.roots == 2
        assert trials.calls["stage"] == 3
        assert trials.seconds["trial"] == pytest.approx(10.0)
        assert trials.self_seconds["trial"] == pytest.approx(10.0 - 4.5)
        assert trials.nth_seconds["stage", 1] == pytest.approx(1.5)
        assert trials.nth_seconds["stage", 2] == pytest.approx(3.0)
        outside = Totals(tracer, None)
        assert outside.self_seconds["batch"] == pytest.approx(20.0 - 10.0)


class TestTracedRun:
    def test_every_rebound_name_is_restored(self, tmp_path):
        workload = run.WORKLOADS["intercept-transcripts"]
        tracer = Tracer()
        originals = snapshot(tracer.targets)
        with tracer:
            assert len(unrestored(originals)) == len(originals)
            _, rows = run.cli_batch(workload, 0, 30, tmp_path, dump=True)
            records = run.load_replays(tmp_path, 30)
            config = run.protocol_config(workload)
            for record in records[:3]:
                tracer.root("bench.replay", run.replay_one, config, record)
        assert unrestored(originals) == []
        for owner, attr, original in originals:
            assert vars(owner)[attr] is original
        assert Totals(tracer, "protocol.run_protocol_full").roots == 30
        assert Totals(tracer, "bench.replay").calls["transcript.parse"] == 3

    def test_names_restored_when_the_traced_call_raises(self):
        tracer = Tracer()
        originals = snapshot(tracer.targets)
        with pytest.raises(RuntimeError):
            with tracer:
                raise RuntimeError("inside the traced block")
        assert unrestored(originals) == []

    def test_spans_see_every_block_decode(self, tmp_path):
        workload = run.WORKLOADS["steane-bitflip"]
        tracer = Tracer()
        with tracer:
            _, rows = run.cli_batch(workload, 0, 5, tmp_path, dump=False)
        assert all(row["aborted"] == "0" for row in rows)
        trials = Totals(tracer, "protocol.run_protocol_full")
        # steane/steane: 7 stage-1 blocks and 1 stage-2 block per trial
        assert trials.calls["codes.decode"] == 5 * 8
        assert trials.calls["protocol.bob_stage"] == 5 * 2
        assert trials.counts["gf2.BitVector"] > 0


class TestGolden:
    def test_one_byte_change_is_caught(self, tmp_path):
        (tmp_path / "trials.csv").write_bytes(b"trial,seed\n0,0\n")
        (tmp_path / "summary.csv").write_bytes(b"trials\n1\n")
        expected = run.file_digests(tmp_path, ["trials.csv", "summary.csv"])
        assert run.golden_mismatches(tmp_path, expected) == []
        (tmp_path / "trials.csv").write_bytes(b"trial,seed\n0,1\n")
        assert run.golden_mismatches(tmp_path, expected) == ["trials.csv"]

    def test_missing_file_is_caught(self, tmp_path):
        (tmp_path / "summary.csv").write_bytes(b"trials\n1\n")
        expected = run.file_digests(tmp_path, ["summary.csv"])
        (tmp_path / "summary.csv").unlink()
        assert run.golden_mismatches(tmp_path, expected) == ["summary.csv"]


class TestAbortProbability:
    def test_intercept_resend_closed_form(self):
        exact = sum(math.comb(49, k) * 0.25**k * 0.75 ** (49 - k) for k in range(7, 50))
        assert run.abort_probability(49, 0.25, run.THRESHOLD) == pytest.approx(exact, rel=1e-12)
        assert run.abort_probability(49, 0.25, run.THRESHOLD) == pytest.approx(0.977, abs=5e-4)

    def test_tail_matches_the_stats_oracle_where_both_apply(self):
        from bb84sim.stats import SamplingModel, cheat_probability_binomial

        for n, r in ((49, 0.03), (49, 0.124), (529, 0.03)):
            oracle = cheat_probability_binomial(SamplingModel(r, n), run.THRESHOLD)
            assert run.binomial_tail(n, r, run.THRESHOLD) == pytest.approx(oracle, rel=1e-9)

    def test_wilson_interval_contains_the_observed_fraction(self):
        lo, hi = run.wilson_interval(30, 1000)
        assert lo < 0.03 < hi
        for trials in (1000, 3800, 3900, 4800):
            lo, hi = run.wilson_interval(0, trials)
            assert lo == 0.0 < run.abort_probability(529, 0.03, run.THRESHOLD) < hi
            assert run.wilson_interval(trials, trials)[1] == 1.0
