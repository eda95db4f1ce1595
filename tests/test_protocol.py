import math
from dataclasses import replace

import numpy as np
import pytest

from bb84sim.channel import AttackModel
from bb84sim.codes import builtin_pair
from bb84sim.errors import ConfigError, InsufficientSiftAbort, TranscriptError
from bb84sim.gf2 import parse_bits
from bb84sim.protocol import (
    ProtocolConfig,
    _bob_stage,
    _check_and_abort,
    _draw_quantum,
    _select,
    replay_bob,
    run_chunk,
    run_protocol,
)
from bb84sim.transcript import StageAnnouncement
from oracle import coset_label, random_codeword
from trials import double_error_in_first_block, one_error_per_block, read_trial

STEANE = builtin_pair("steane")


def simplex_pair():
    # non-perfect outer code (the simplex [7,3,4]) over the zero code, so
    # bounded-distance decoding has reachable failure syndromes
    from bb84sim.codes import CssPair, LinearCode, make_hamming_dual_7_3

    zero = LinearCode(np.zeros((0, 7), dtype=np.uint8), np.eye(7, dtype=np.uint8), 7,
                      name="zero[7,0]")
    return CssPair(make_hamming_dual_7_3(), zero)


def steane_config(**kw):
    defaults = dict(stage1_pair=STEANE, stage2_pair=STEANE,
                    abort_threshold=0.124, delta=0.1, rng_seed=0)
    defaults.update(kw)
    return ProtocolConfig(**defaults)


class TestConfig:
    def test_derived_sizes(self):
        cfg = steane_config()
        assert cfg.transmitted_count == 215  # floor(4 * 49 * 1.1)
        assert cfg.kept_target == 98
        assert cfg.check_count == 49
        assert cfg.block_counts == (7, 1)
        assert cfg.final_key_bits == 1

    def test_validation(self):
        for delta in (0.0, math.inf):
            with pytest.raises(ConfigError):
                steane_config(delta=delta)
        with pytest.raises(ConfigError):
            steane_config(abort_threshold=1.5)

    def test_mixed_pairs(self):
        golay = builtin_pair("golay")
        cfg = ProtocolConfig(stage1_pair=STEANE, stage2_pair=golay,
                             abort_threshold=0.2, rng_seed=1)
        assert cfg.transmitted_count == int(4 * 7 * 23 * 1.1)
        assert cfg.block_counts == (23, 1)
        assert cfg.final_key_bits == 1

    def test_key_width_above_one(self):
        # simplex/simplex: 7 stage-1 blocks give 7*3 key bits, 3 blocks of 7
        simplex = simplex_pair()
        cfg = steane_config(stage1_pair=simplex, stage2_pair=simplex)
        assert simplex.key_width == 3
        assert cfg.block_counts == (7, 3)
        assert cfg.final_key_bits == 9


class TestAlicePrepare:
    def test_count_and_basis_by_construction(self):
        cfg = steane_config()
        draws, _ = _draw_quantum(cfg, AttackModel.none(), [0])
        bits, b = draws["bits"], draws["b"]
        assert bits.shape == b.shape == (1, 215)
        assert set(np.unique(bits)) <= {0, 1}
        assert set(np.unique(b)) <= {0, 1}

    def test_bit_values_balanced(self):
        cfg = steane_config()
        draws, _ = _draw_quantum(cfg, AttackModel.none(), range(7, 7 + 466))
        for name in ("bits", "b", "bob_bases"):
            bits = draws[name]
            assert bits.size >= 100_000
            tol = 3 * math.sqrt(0.25 / bits.size)
            assert abs(bits.mean() - 0.5) < tol, name


def sift(alice_bases, bob_bases, cfg, rng):
    # one trial's sifting, as the engine takes it from its bases
    matched = (bob_bases == alice_bases)[None]
    return _select(matched, matched.sum(axis=1), cfg, [rng])


class TestSift:
    def test_all_bases_equal_keeps_everything(self):
        cfg = steane_config()
        rng = np.random.default_rng(0)
        b = np.zeros(cfg.transmitted_count, dtype=np.uint8)
        kept, check, code = sift(b, b.copy(), cfg, rng)
        assert kept.shape == (1, cfg.kept_target)
        assert check.shape == (1, cfg.check_count)
        assert code.shape == (1, cfg.check_count)

    def test_too_few_matches_after_max_restarts_aborts(self):
        # at delta 0.04 a steane attempt has 203 qubits for 98 kept ones,
        # and some of these trials need a second attempt
        cfg = steane_config(delta=0.04, max_restarts=0)
        with pytest.raises(InsufficientSiftAbort, match="basis-matched positions, need 98"):
            _draw_quantum(cfg, AttackModel.none(), range(20))
        draws, _ = _draw_quantum(replace(cfg, max_restarts=100), AttackModel.none(), range(20))
        assert max(draws["restarts"]) > 0

    def test_matched_count_binomial(self):
        # basis agreement is a fair coin per position
        cfg = steane_config()
        rng = np.random.default_rng(11)
        trials = 10_000
        n = cfg.transmitted_count
        counts = (rng.integers(0, 2, (trials, n)) == rng.integers(0, 2, (trials, n))).sum(axis=1)
        mean = counts.mean()
        tol = 3 * math.sqrt(n * 0.25 / trials)
        assert abs(mean - n / 2) < tol

    def test_partition_structure(self):
        cfg = steane_config()
        rng = np.random.default_rng(3)
        b = rng.integers(0, 2, cfg.transmitted_count, dtype=np.uint8)
        bob = b.copy()  # force full agreement so selection is exercised
        kept, check, code = (a[0].tolist() for a in sift(b, bob, cfg, rng))
        assert set(check) | set(code) == set(kept)
        assert not set(check) & set(code)
        assert kept == sorted(kept) and check == sorted(check) and code == sorted(code)

    def test_chunk_rows_partition_their_own_matches(self):
        # several trials in one chunk, each sifting among its own matches
        cfg = steane_config()
        draws, _ = _draw_quantum(cfg, AttackModel.none(), range(40))
        for i in range(40):
            matched = set((draws["b"][i] == draws["bob_bases"][i]).nonzero()[0].tolist())
            kept = draws["kept"][i].tolist()
            assert set(kept) <= matched and len(set(kept)) == cfg.kept_target
            assert sorted(draws["check"][i].tolist() + draws["code"][i].tolist()) == kept


def check_rows(*strings):
    # one trial's check bits per row, as the check takes them
    return np.array([[int(c) for c in s] for s in strings], dtype=np.uint8)


class TestCheckAndDecide:
    def test_identical(self):
        rate, abort = _check_and_abort(check_rows("0101"), check_rows("0101"), steane_config())
        assert rate.tolist() == [0.0] and abort.tolist() == [False]

    def test_complementary(self):
        rate, abort = _check_and_abort(check_rows("0101"), check_rows("1010"), steane_config())
        assert rate.tolist() == [1.0] and abort.tolist() == [True]

    def test_seven_of_fortynine_aborts_at_reference_threshold(self):
        alice = check_rows("0" * 49)
        bob = check_rows("1" * 7 + "0" * 42)  # 7 disagreements
        rate, abort = _check_and_abort(alice, bob, steane_config())
        assert abs(rate[0] - 1 / 7) < 1e-12
        assert abort.tolist() == [True]

    def test_length_mismatch(self):
        # the two check strings of a transcript must have equal lengths
        transcript = read_trial(run_protocol(steane_config())[1]).transcript
        with pytest.raises(ValueError, match="check value strings differ in length"):
            replace(transcript, bob_check_values="0" * 48)


def rows(*vectors):
    # one block per row, as the stage functions take them
    return np.array(vectors, dtype=np.uint8)


class TestStageCorrectAndAmplify:
    def test_clean_blocks_match_alice(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = random_codeword(STEANE.outer, rng)
            v = rng.integers(0, 2, size=7, dtype=np.uint8)
            labels, failed = _bob_stage(STEANE, rows(v), rows(u ^ v))
            assert labels.tolist() == [coset_label(STEANE, u).tolist()]
            assert failed.tolist() == [False]

    def test_single_error_exhaustive(self):
        # every single-bit error in every block, for every codeword u
        for u in STEANE.outer.codewords():
            for j in range(7):
                v = np.zeros(7, dtype=np.uint8)
                noisy = v ^ np.eye(7, dtype=np.uint8)[j]
                labels, failed = _bob_stage(STEANE, rows(noisy), rows(u ^ v))
                assert labels.tolist() == [coset_label(STEANE, u).tolist()]
                assert failed.tolist() == [False]

    def test_weight_two_mismatch_fixture(self):
        # exhaustive enumeration: 21 weight-2 patterns x 16 codewords; for
        # this pair every weight-2 error miscorrects to a wrong label, so the
        # recorded mismatch rate fixture is exactly 1.0
        import itertools
        mismatches = 0
        total = 0
        for u in STEANE.outer.codewords():
            for pos in itertools.combinations(range(7), 2):
                err = np.array([1 if i in pos else 0 for i in range(7)], dtype=np.uint8)
                labels, _ = _bob_stage(STEANE, rows(err), rows(u))
                total += 1
                mismatches += labels[0].tolist() != coset_label(STEANE, u).tolist()
        assert total == 336
        assert mismatches / total == 1.0


class TestRunProtocol:
    def test_clean_run(self):
        outcome, chunk = run_protocol(steane_config(rng_seed=42))
        transcript = read_trial(chunk).transcript
        assert not outcome.aborted
        assert outcome.alice_final_key == outcome.bob_final_key
        assert len(outcome.alice_final_key) == 1
        assert outcome.observed_check_error_rate == 0.0
        assert outcome.stage1_decode_failures == 0
        assert outcome.stage2_decode_failures == 0
        assert len(transcript.stage1_blocks) == 7
        assert len(transcript.stage2_blocks) == 1

    def test_deterministic_given_seed_and_attack(self):
        cfg = steane_config(rng_seed=9)
        attack = AttackModel.bitflip(0.05)
        a1, c1 = run_protocol(cfg, attack)
        a2, c2 = run_protocol(cfg, attack)
        assert a1 == a2
        assert list(c1.dumps()) == list(c2.dumps())

    def test_zero_noise_zero_threshold_never_aborts(self):
        cfg = steane_config(abort_threshold=0.0)
        for seed in range(10):
            outcome, _ = run_protocol(steane_config(abort_threshold=0.0, rng_seed=seed),
                                      AttackModel.bitflip(0.0))
            assert not outcome.aborted
            assert outcome.keys_equal

    def test_full_intercept_usually_aborts(self):
        aborts = 0
        for seed in range(100):
            outcome, _ = run_protocol(steane_config(rng_seed=seed),
                                      AttackModel.intercept_resend(1.0))
            aborts += outcome.aborted
            if outcome.aborted:
                assert outcome.abort_reason == "security"
                assert outcome.alice_final_key is None
        assert aborts >= 90  # exact binomial abort probability is 0.977

    def test_check_code_partition_every_run(self):
        for seed in range(10):
            transcript = read_trial(run_protocol(steane_config(rng_seed=seed))[1]).transcript
            kept = set(transcript.kept_positions)
            check = set(transcript.check_positions)
            block_positions = transcript.stage1_blocks.positions.ravel().tolist()
            assert len(block_positions) == len(set(block_positions))
            assert check | set(block_positions) == kept
            assert not check & set(block_positions)
            assert len(kept) == 98

    def test_restarts_recover_scarce_sifting(self):
        # delta barely above zero leaves ~50% attempts short of 2*n1*n2
        restarts = []
        for seed in range(20):
            cfg = steane_config(delta=0.001, rng_seed=seed)
            outcome, _ = run_protocol(cfg)
            restarts.append(outcome.restarts)
            assert not outcome.aborted
            assert outcome.keys_equal
        assert max(restarts) > 0

    def test_injected_single_errors_always_corrected(self):
        for seed in range(20):
            cfg = steane_config(rng_seed=seed)
            flips = one_error_per_block(np.random.default_rng(1000 + seed), cfg)
            outcome = run_chunk(cfg, [cfg.rng_seed], AttackModel.none(), flips).outcome(0)
            assert not outcome.aborted
            assert outcome.keys_equal
            assert outcome.stage1_decode_failures == 0

    def test_strict_decode_aborts_on_failure(self):
        # both built-in outer codes are perfect (their tables cover every
        # syndrome), so decode failures need a non-perfect outer code: the
        # [7,3,4] simplex over a zero inner code, where the weight-2 error
        # e0+e1 has a syndrome outside the radius-1 table
        cfg = ProtocolConfig(stage1_pair=simplex_pair(), stage2_pair=simplex_pair(),
                             abort_threshold=0.3, rng_seed=2, strict_decode=True)
        flips = double_error_in_first_block(cfg)
        outcome = run_chunk(cfg, [cfg.rng_seed], AttackModel.none(), flips).outcome(0)
        assert outcome.aborted
        assert outcome.abort_reason == "decode_failure"

    def test_flag_and_continue_counts_failures(self):
        cfg = ProtocolConfig(stage1_pair=simplex_pair(), stage2_pair=simplex_pair(),
                             abort_threshold=0.3, rng_seed=2, strict_decode=False)
        flips = double_error_in_first_block(cfg)
        outcome = run_chunk(cfg, [cfg.rng_seed], AttackModel.none(), flips).outcome(0)
        assert not outcome.aborted
        assert outcome.stage1_decode_failures == 1

    def test_mixed_steane_golay_end_to_end(self):
        golay = builtin_pair("golay")
        cfg = ProtocolConfig(stage1_pair=STEANE, stage2_pair=golay,
                             abort_threshold=0.124, rng_seed=5)
        outcome, chunk = run_protocol(cfg)
        transcript = read_trial(chunk).transcript
        assert not outcome.aborted
        assert outcome.keys_equal
        assert len(outcome.alice_final_key) == 1
        assert transcript.stage1_blocks.positions.shape == (23, 7)
        assert transcript.stage2_blocks.positions.shape == (1, 23)


class TestFixedAssignmentHook:
    def test_selection_is_first_positions_in_order(self):
        cfg = steane_config(random_assignment=False, rng_seed=4)
        art = read_trial(run_chunk(cfg, [cfg.rng_seed]))
        matched = np.flatnonzero(art.bob_bases == parse_bits(art.transcript.b))
        kept = art.transcript.kept_positions
        assert np.array_equal(kept, matched[:98])
        assert np.array_equal(art.transcript.check_positions, kept[:49])
        code = art.transcript.code_positions()
        blocks = art.transcript.stage1_blocks.positions.ravel()
        assert np.array_equal(blocks, code)  # consecutive chunks, ascending

    def test_attack_on_check_positions_only_never_touches_code(self):
        # aim a certain flip at every eventual check position: the check
        # string lights up completely while the code bits stay clean
        cfg = steane_config(random_assignment=False, rng_seed=8, abort_threshold=1.0)
        clean = read_trial(run_chunk(cfg, [cfg.rng_seed]))
        attack = AttackModel.correlated_positions(clean.transcript.check_positions, 1.0)
        outcome, chunk = run_protocol(cfg, attack)
        transcript = read_trial(chunk).transcript
        assert np.array_equal(transcript.check_positions, clean.transcript.check_positions)
        assert outcome.observed_check_error_rate == 1.0
        assert not outcome.aborted  # threshold 1.0 tolerates anything
        assert outcome.keys_equal
        assert outcome.stage1_decode_failures == 0

    def test_known_position_attack_cheats_fixed_assignment(self):
        # two flips in each of the first two stage-1 blocks: both block keys
        # decode wrong, the second stage sees two errors and miscorrects, and
        # not one check bit fires
        cfg = steane_config(random_assignment=False, rng_seed=12)
        clean = read_trial(run_chunk(cfg, [cfg.rng_seed]))
        blocks = clean.transcript.stage1_blocks
        target = blocks.positions[:2, :2].ravel()
        attack = AttackModel.correlated_positions(target, 1.0)
        outcome, _ = run_protocol(cfg, attack)
        assert outcome.observed_check_error_rate == 0.0
        assert not outcome.aborted
        assert outcome.keys_equal is False


class TestReplay:
    def test_replay_reproduces_clean_run(self):
        cfg = steane_config(rng_seed=31)
        art = read_trial(run_chunk(cfg, [cfg.rng_seed]))
        result = replay_bob(art.transcript, art.bob_bases, art.bob_bits, cfg)
        assert result.key == art.outcome.bob_final_key
        assert result.check_error_rate == art.outcome.observed_check_error_rate
        # `bb84sim replay` prints its repr, which a numpy float would change
        assert type(result.check_error_rate) is float

    def test_replay_reproduces_noisy_runs(self):
        for seed in range(15):
            cfg = steane_config(rng_seed=seed)
            art = read_trial(run_chunk(cfg, [cfg.rng_seed], AttackModel.bitflip(0.08)))
            result = replay_bob(art.transcript, art.bob_bases, art.bob_bits, cfg)
            assert result.aborted == art.outcome.aborted
            if art.outcome.aborted:
                assert result.key is None
            else:
                assert result.key == art.outcome.bob_final_key

    def test_replay_rejects_wrong_length_record(self):
        from bb84sim.errors import TranscriptError

        cfg = steane_config(rng_seed=2)
        art = read_trial(run_chunk(cfg, [cfg.rng_seed]))
        with pytest.raises(TranscriptError):
            replay_bob(art.transcript, art.bob_bases[:-1], art.bob_bits[:-1], cfg)


def _shortened(blocks):
    # the same stage's announcements with the last position of each block dropped
    n = blocks.positions.shape[1]
    masked = "".join(blocks.masked[i:i + n - 1] for i in range(0, len(blocks.masked), n))
    return StageAnnouncement(blocks.positions[:, :-1], masked)


class TestReplayGeometry:
    """A transcript that does not fit the configured code pairs is a
    TranscriptError, whatever the mismatch."""

    def test_check_count_of_other_pairs(self):
        art = read_trial(run_chunk(steane_config(), [31]))
        other = steane_config(rng_seed=31, stage2_pair=builtin_pair("golay"))
        with pytest.raises(TranscriptError, match="49 check positions.* use 161"):
            replay_bob(art.transcript, art.bob_bases, art.bob_bits, other)

    def test_aborted_transcript_under_other_pairs(self):
        cfg = steane_config(rng_seed=0)
        art = read_trial(run_chunk(cfg, [cfg.rng_seed], AttackModel.intercept_resend(1.0)))
        assert art.outcome.aborted
        other = steane_config(rng_seed=0, stage1_pair=builtin_pair("golay"))
        with pytest.raises(TranscriptError, match="check positions"):
            replay_bob(art.transcript, art.bob_bases, art.bob_bits, other)

    def test_stage1_block_count(self):
        # steane/golay and golay/steane both compare 161 check bits
        golay = builtin_pair("golay")
        cfg = steane_config(rng_seed=5, stage2_pair=golay, abort_threshold=0.2)
        art = read_trial(run_chunk(cfg, [cfg.rng_seed]))
        assert not art.outcome.aborted
        swapped = steane_config(rng_seed=5, stage1_pair=golay, abort_threshold=0.2)
        with pytest.raises(TranscriptError, match="23 stage-1 blocks.* use 7"):
            replay_bob(art.transcript, art.bob_bases, art.bob_bits, swapped)

    def test_stage2_block_count(self):
        # a key-width-4 stage-1 pair keeps steane's geometry up to stage 2
        from bb84sim.codes import CssPair, LinearCode, make_hamming_7_4

        zero = LinearCode(np.zeros((0, 7), dtype=np.uint8), np.eye(7, dtype=np.uint8), 7,
                          name="zero[7,0]")
        art = read_trial(run_chunk(steane_config(), [31]))
        wide = steane_config(rng_seed=31, stage1_pair=CssPair(make_hamming_7_4(), zero))
        with pytest.raises(TranscriptError, match="1 stage-2 blocks.* use 4"):
            replay_bob(art.transcript, art.bob_bases, art.bob_bits, wide)

    def test_strict_transcript_stopping_after_a_clean_stage(self):
        # under strict decoding only a stage with a failed block ends the
        # announcements; steane decodes every block, so stage 2 must follow
        cfg = steane_config(rng_seed=31, strict_decode=True)
        art = read_trial(run_chunk(cfg, [cfg.rng_seed]))
        cut = replace(art.transcript, stage2_blocks=StageAnnouncement())
        with pytest.raises(TranscriptError, match="0 stage-2 blocks.* use 1"):
            replay_bob(cut, art.bob_bases, art.bob_bits, cfg)
        with pytest.raises(TranscriptError, match="0 stage-2 blocks.* use 1"):
            replay_bob(cut, art.bob_bases, art.bob_bits, replace(cfg, strict_decode=False))

    @pytest.mark.parametrize("stage", [1, 2])
    def test_block_length(self, stage):
        cfg = steane_config(rng_seed=31)
        art = read_trial(run_chunk(cfg, [cfg.rng_seed]))
        field = f"stage{stage}_blocks"
        blocks = getattr(art.transcript, field)
        short = replace(art.transcript, **{field: _shortened(blocks)})
        with pytest.raises(TranscriptError, match=f"stage-{stage} block 0 has 6 bits.* n=7"):
            replay_bob(short, art.bob_bases, art.bob_bits, cfg)


class TestReplayPositions:
    """Positions a transcript names are checked against Bob's record before
    anything is indexed with them."""

    def setup_method(self):
        self.cfg = steane_config(rng_seed=31)
        self.art = read_trial(run_chunk(self.cfg, [self.cfg.rng_seed]))

    def replay(self, transcript, bases=None):
        bases = self.art.bob_bases if bases is None else bases
        return replay_bob(transcript, bases, self.art.bob_bits, self.cfg)

    def test_check_position_outside_transmission(self):
        t = self.art.transcript
        bad = replace(t, check_positions=np.append(t.check_positions[:-1], 9999))
        with pytest.raises(TranscriptError,
                           match="check position 9999 outside transmission length 215"):
            self.replay(bad)

    def test_check_position_not_kept(self):
        t = self.art.transcript
        unkept = min(set(range(215)) - set(t.kept_positions))
        bad = replace(t, check_positions=np.append(unkept, t.check_positions[1:]))
        with pytest.raises(TranscriptError, match=f"check position {unkept} is not a kept"):
            self.replay(bad)

    def test_first_kept_position_in_wrong_basis_is_reported(self):
        kept = self.art.transcript.kept_positions
        bases = self.art.bob_bases.copy()
        bases[[kept[5], kept[9]]] ^= 1
        with pytest.raises(TranscriptError, match=f"kept position {kept[5]} was not measured"):
            self.replay(self.art.transcript, bases)

    def test_kept_position_outside_before_wrong_basis(self):
        t = self.art.transcript
        bases = self.art.bob_bases.copy()
        bases[t.kept_positions[9]] ^= 1
        kept = t.kept_positions.copy()
        kept[5] = 215
        bad = replace(t, kept_positions=kept)
        with pytest.raises(TranscriptError, match="kept position 215 outside transmission"):
            self.replay(bad, bases)

    def test_negative_kept_position_is_outside(self):
        # indexing from the end of Bob's record, kept[5] - 215 would read
        # as kept[5] itself
        t = self.art.transcript
        kept = t.kept_positions.copy()
        kept[5] -= 215
        with pytest.raises(TranscriptError, match=f"kept position {kept[5]} outside transmission"):
            self.replay(replace(t, kept_positions=kept))

    def test_repeated_positions_yield_no_key(self):
        # check position 1 replaced by a copy of position 0, in CHECKPOS and
        # in KEEP, keeps every count and the stage-1 partition; the repeat
        # in KEEP is reported first
        t = self.art.transcript
        check = t.check_positions.copy()
        check[1] = check[0]
        kept = t.kept_positions.copy()
        kept[kept == t.check_positions[1]] = check[0]
        bad = replace(t, kept_positions=np.sort(kept), check_positions=check)
        with pytest.raises(TranscriptError, match=f"kept position {check[0]} repeats"):
            self.replay(bad)

    def test_short_keep_of_an_aborted_transcript(self):
        cfg = steane_config(rng_seed=0)
        art = read_trial(run_chunk(cfg, [0], AttackModel.intercept_resend(1.0)))
        assert art.outcome.aborted
        t = replace(art.transcript, kept_positions=art.transcript.check_positions)
        with pytest.raises(TranscriptError,
                           match="49 kept positions, but the configured code pairs use 98"):
            replay_bob(t, art.bob_bases, art.bob_bits, cfg)

    def test_repeated_check_position(self):
        t = self.art.transcript
        p = t.check_positions[0]
        bad = replace(t, check_positions=np.full(49, p))
        with pytest.raises(TranscriptError, match=f"check position {p} repeats"):
            self.replay(bad)

    @pytest.mark.parametrize("field", ["kept", "check", "stage-1 block", "stage-2 block"])
    @pytest.mark.parametrize("p", [2**63, 10**30, -2**63 - 1])
    def test_position_beyond_int64(self, field, p):
        # a hand-built transcript can be given any int, and one that does not
        # fit an int64 is refused where the transcript is built, before any
        # replay; parsed ones hold at most 18 digits
        t = self.art.transcript
        if field in ("kept", "check"):
            name = f"{field}_positions"
            with pytest.raises(ValueError, match=f"{name} holds a position that does not fit"):
                replace(t, **{name: [p] + getattr(t, name)[1:].tolist()})
        else:
            blocks = getattr(t, f"stage{field[6]}_blocks")
            with pytest.raises(ValueError, match="positions holds a position that does not fit"):
                _with_position(blocks, 0, 0, p)


def _with_position(blocks, b, j, p):
    """The stage's announcements `blocks` with position j of block b
    replaced by p."""
    positions = blocks.positions.tolist()
    positions[b][j] = p
    return StageAnnouncement(positions, blocks.masked)


class TestReplayPartitions:
    """The stage-1 blocks and the check positions partition the kept
    positions, and the stage-2 blocks permute the stage-1 key bits; the first
    position in block order that breaks this is the one reported."""

    def setup_method(self):
        self.cfg = steane_config(rng_seed=31)
        self.art = read_trial(run_chunk(self.cfg, [self.cfg.rng_seed]))
        assert not self.art.outcome.aborted

    def replay(self, transcript):
        return replay_bob(transcript, self.art.bob_bases, self.art.bob_bits, self.cfg)

    def edited(self, stage, *edits):
        """The transcript with position j of stage block b set to p, for
        each (b, j, p) in `edits`."""
        field = f"stage{stage}_blocks"
        blocks = getattr(self.art.transcript, field)
        for b, j, p in edits:
            blocks = _with_position(blocks, b, j, p)
        return replace(self.art.transcript, **{field: blocks})

    def unkept(self):
        return min(set(range(215)) - set(self.art.transcript.kept_positions))

    def partition_error(self, block, p):
        return f"stage-1 block {block} position {p} violates the check/code partition"

    @pytest.mark.parametrize("what", ["check", "unkept", "repeat", "same block", "outside"])
    def test_stage1_position_outside_the_code_positions(self, what):
        t = self.art.transcript
        p = {"check": t.check_positions[0], "unkept": self.unkept(),
             "repeat": t.stage1_blocks.positions[0, 4],
             "same block": t.stage1_blocks.positions[2, 0], "outside": 9999}[what]
        with pytest.raises(TranscriptError, match=self.partition_error(2, p)):
            self.replay(self.edited(1, (2, 3, p)))

    def test_first_bad_stage1_position_in_block_order_is_reported(self):
        t = self.art.transcript
        check = t.check_positions[0]
        with pytest.raises(TranscriptError, match=self.partition_error(1, check)):
            self.replay(self.edited(1, (1, 4, check), (3, 0, 9999)))
        with pytest.raises(TranscriptError, match=self.partition_error(1, 9999)):
            self.replay(self.edited(1, (1, 4, 9999), (3, 0, check)))
        # a repeat offends where it recurs, not where it first appears
        p = t.stage1_blocks.positions[5, 1]
        with pytest.raises(TranscriptError, match=self.partition_error(3, check)):
            self.replay(self.edited(1, (1, 2, p), (3, 6, check)))
        with pytest.raises(TranscriptError, match=self.partition_error(5, p)):
            self.replay(self.edited(1, (1, 2, p), (6, 6, check)))

    def test_kept_position_no_block_covers(self):
        # the configured pairs fix how many positions are kept, so an extra
        # one is refused by its count, before any block is read
        t = self.art.transcript
        matched = np.flatnonzero(self.art.bob_bases == parse_bits(t.b))
        extra = int(min(set(matched.tolist()) - set(t.kept_positions)))
        bad = replace(t, kept_positions=np.sort(np.append(t.kept_positions, extra)))
        with pytest.raises(TranscriptError,
                           match="99 kept positions, but the configured code pairs use 98"):
            self.replay(bad)

    @pytest.mark.parametrize("what", ["repeat", "too large"])
    def test_stage2_index_outside_the_stage1_key(self, what):
        p = {"repeat": self.art.transcript.stage2_blocks.positions[0, 0], "too large": 7}[what]
        with pytest.raises(TranscriptError,
                           match=f"stage-2 block 0 position {p} invalid over 7 key bits"):
            self.replay(self.edited(2, (0, 3, p)))

    def test_first_bad_stage2_index_in_block_order_is_reported(self):
        first = self.art.transcript.stage2_blocks.positions[0, 0]
        with pytest.raises(TranscriptError, match="stage-2 block 0 position 9 invalid"):
            self.replay(self.edited(2, (0, 2, 9), (0, 5, first)))
        with pytest.raises(TranscriptError, match=f"stage-2 block 0 position {first} invalid"):
            self.replay(self.edited(2, (0, 2, first), (0, 5, 9)))
