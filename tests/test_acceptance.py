"""End-to-end acceptance suite.

Each check prints one PASS/FAIL line with its measured values (run pytest
with -s to see the lines for passing checks too).  Tolerances are pinned in
the assertions; Monte Carlo batches use fixed seeds, so every run of this
suite is deterministic.

Check 6b compares the full intercept-resend abort fraction with the exact
binomial abort probability.  With 49 check bits at threshold 0.124 the
protocol aborts iff at least 7 check bits err, so with a sifted error rate
of 1/4 the exact probability is P[Bin(49, 1/4) >= 7] = 0.977; the Monte
Carlo fraction must lie in a z=5 Wilson interval around it.  A detection
rate of at least 0.999 needs more check bits: 6b demands it, exact and
Monte Carlo, of steane/golay with 161 check bits (exact 0.999975).
"""

import itertools
import math
import time

import numpy as np
import pytest

from bb84sim.channel import AttackModel
from bb84sim.cli import main as cli_main
from bb84sim.codes import builtin_pair
from bb84sim.protocol import (
    ProtocolConfig,
    _alice_stage,
    _labels,
    replay_bob,
    run_chunk,
    run_protocol,
    stage_correct_and_amplify,
)
from bb84sim.stats import (
    RecursionModel,
    SamplingModel,
    UNDERFLOW_FLOOR,
    cheat_probability,
    cheat_probability_binomial,
    confidence_threshold,
    iterate_error_rate,
    sigma,
)
from bb84sim.transcript import parse_bob, parse_transcript
from oracle import one_error_per_block

STEANE = builtin_pair("steane")
GOLAY = builtin_pair("golay")


def steane_config(seed, **kw):
    defaults = dict(stage1_pair=STEANE, stage2_pair=STEANE,
                    abort_threshold=0.124, delta=0.1, rng_seed=seed)
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def report(tag, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def wilson_interval(successes, trials, z):
    """Two-sided Wilson score interval for a binomial proportion."""
    centre = (successes + z * z / 2) / (trials + z * z)
    half = z / (trials + z * z) * math.sqrt(successes * (trials - successes) / trials + z * z / 4)
    return centre - half, centre + half


def test_01_sampling_deviation_point():
    value = sigma(SamplingModel(0.10, 1000))
    ok = abs(value - 0.009487) <= 1e-6
    report("01 sampling deviation", ok, f"sigma(0.10, 1000) = {value:.9f} (want 0.009487 +/- 1e-6)")


def test_02_confidence_and_cheat_points():
    model = SamplingModel(0.10, 1000)
    t_low = confidence_threshold(model, 2.57)
    t_high = confidence_threshold(model, 20.0)
    cheat = cheat_probability(model, 0.124)
    ok = (abs(t_low - 0.1244) <= 0.0005
          and abs(t_high - 0.2897) <= 0.0005
          and abs(cheat - 0.010) <= 0.001)
    report("02 confidence points", ok,
           f"z=2.57 -> {t_low:.6f} (0.1244 +/- 5e-4), z=20 -> {t_high:.6f} "
           f"(0.2897 +/- 5e-4), cheat(0.124) -> {cheat:.6f} (0.010 +/- 1e-3)")


def test_03_clean_channel_correctness():
    start = time.perf_counter()
    aborts = 0
    agreements = 0
    lengths_ok = True
    for seed in range(1000):
        outcome, _ = run_protocol(steane_config(seed))
        aborts += outcome.aborted
        if not outcome.aborted:
            agreements += outcome.keys_equal
            lengths_ok &= len(outcome.alice_final_key) == 1
    elapsed = time.perf_counter() - start
    ok = aborts == 0 and agreements == 1000 and lengths_ok and elapsed < 10
    report("03 clean-channel correctness", ok,
           f"aborts={aborts}/1000, agreement={agreements}/1000, 1-bit keys={lengths_ok}, "
           f"{elapsed:.1f}s (<10s)")


def test_04_half_distance_robustness():
    start = time.perf_counter()
    # every single-bit error on every codeword u, as the 7x16 blocks of one
    # stage call: Alice announces u (her bits v are zero), Bob holds the error
    coeffs = np.repeat(np.array(list(itertools.product((0, 1), repeat=4)), dtype=np.uint8), 7,
                       axis=0)
    values = np.zeros((len(coeffs), 7), dtype=np.uint8)
    masked, alice_labels = _alice_stage(STEANE, values, coeffs)
    errors = np.tile(np.eye(7, dtype=np.uint8), (16, 1))
    labels, failed = stage_correct_and_amplify(STEANE, values ^ errors, masked)
    exhaustive_ok = (len(np.unique(masked, axis=0)) == 16 and not failed.any()
                     and bool((labels == alice_labels).all()))
    agreements = 0
    for seed in range(100):
        inject = one_error_per_block(np.random.default_rng(10_000 + seed))
        outcome, _ = run_protocol(steane_config(seed), AttackModel.none(),
                                  error_injection=inject)
        agreements += (not outcome.aborted) and outcome.keys_equal
    elapsed = time.perf_counter() - start
    ok = exhaustive_ok and agreements == 100 and elapsed < 10
    report("04 half-distance robustness", ok,
           f"exhaustive 7x16 decode+label={exhaustive_ok}, injected-error agreement="
           f"{agreements}/100, {elapsed:.1f}s (<10s)")


def test_05_coset_label_oracle():
    # the engine's labels of all 16 codewords against the brute-force cosets
    inner_words = {cw.tobytes() for cw in STEANE.inner.codewords()}
    codewords = STEANE.outer.codewords()
    labels = _labels(STEANE, codewords @ STEANE.check_label_t & 1)
    by_label = {}
    for cw, label in zip(codewords, labels.tolist()):
        by_label.setdefault(tuple(label), []).append(cw)
    ok = len(by_label) == 2
    for group in by_label.values():
        ok &= len(group) == 8
        for a in group:
            for b in group:
                ok &= (a ^ b).tobytes() in inner_words
    g0, g1 = by_label.values()
    for a in g0:
        for b in g1:
            ok &= (a ^ b).tobytes() not in inner_words
    report("05 coset-label oracle", ok,
           f"brute-force coset partition of 16 codewords matches labels exhaustively: {ok}")


@pytest.fixture(scope="module")
def intercept_batch():
    start = time.perf_counter()
    outcomes = []
    for seed in range(10_000):
        outcome, _ = run_protocol(steane_config(seed), AttackModel.intercept_resend(1.0))
        outcomes.append(outcome)
    return outcomes, time.perf_counter() - start


def test_06a_full_intercept_mean_check_error(intercept_batch):
    outcomes, elapsed = intercept_batch
    mean = float(np.mean([o.observed_check_error_rate for o in outcomes]))
    tol = 3 * math.sqrt(0.25 * 0.75 / (49 * 10_000))
    ok = abs(mean - 0.25) <= tol and elapsed < 60
    report("06a intercept mean check error", ok,
           f"mean={mean:.5f} (0.25 +/- {tol:.5f}), {elapsed:.1f}s (<60s)")


def test_06b_full_intercept_abort_fraction(intercept_batch):
    # The check bits catch full intercept-resend (sifted error rate 1/4) at
    # the binomial rate their count allows.  At 49 check bits that is 0.977,
    # checked two-sided so that over- and under-aborting both fail; a 0.999
    # detection rate is demanded where the check count supports it.
    outcomes, _ = intercept_batch
    config = steane_config(0)
    aborts = sum(o.aborted for o in outcomes)
    fraction = aborts / len(outcomes)
    exact = cheat_probability_binomial(SamplingModel(0.25, config.check_count),
                                       config.abort_threshold)
    lo, hi = wilson_interval(aborts, len(outcomes), z=5)

    golay_config = steane_config(0, stage2_pair=GOLAY)
    golay_exact = cheat_probability_binomial(SamplingModel(0.25, golay_config.check_count),
                                             golay_config.abort_threshold)
    golay_trials = 2000
    golay_aborts = sum(
        run_protocol(steane_config(seed, stage2_pair=GOLAY),
                     AttackModel.intercept_resend(1.0))[0].aborted
        for seed in range(golay_trials))
    golay_fraction = golay_aborts / golay_trials

    ok = lo <= exact <= hi and golay_exact >= 0.999 and golay_fraction >= 0.999
    report("06b intercept abort fraction", ok,
           f"steane/steane {config.check_count} check bits: abort fraction={fraction:.4f}, "
           f"exact {exact:.6f} in z=5 Wilson [{lo:.4f}, {hi:.4f}]; steane/golay "
           f"{golay_config.check_count} check bits: exact {golay_exact:.6f}, abort fraction="
           f"{golay_aborts}/{golay_trials} = {golay_fraction:.4f} (both >= 0.999)")


def test_07_sampling_closure():
    start = time.perf_counter()
    rates = []
    for seed in range(1000):
        outcome, _ = run_protocol(steane_config(seed), AttackModel.bitflip(0.10))
        rates.append(outcome.observed_check_error_rate)
    observed = float(np.std(rates, ddof=1))
    predicted = sigma(SamplingModel(0.10, 49))
    rel = abs(observed - predicted) / predicted
    elapsed = time.perf_counter() - start
    ok = rel <= 0.20 and elapsed < 30
    report("07 sampling closure", ok,
           f"stddev {observed:.5f} vs sigma(0.10,49)={predicted:.5f}, rel err {rel:.1%} "
           f"(<=20%), {elapsed:.1f}s (<30s)")


def test_08_recursion_collapse():
    seq = iterate_error_rate(RecursionModel(0.3, 0.01), 3)
    r1_ok = abs(seq[0] / math.exp(-9) - 1) < 1e-6  # 6 significant figures
    r2_ok = 0.0 < seq[1] < 1e-300
    decreasing = seq[0] > seq[1] > seq[2] >= UNDERFLOW_FLOOR
    ok = r1_ok and r2_ok and decreasing
    report("08 recursion collapse", ok,
           f"r1={seq[0]:.6e} (exp(-9)), r2={seq[1]:.3e} (<1e-300), r3={seq[2]:.3e}, "
           f"strictly decreasing={decreasing}")


def weight2_label_mismatch_fixture():
    # exhaustive: every weight-2 error pattern on every codeword u, as the
    # 21x16 blocks of one stage call (Alice's bits are zero, so she announces
    # u); returns the fraction that decodes to a wrong coset label
    pairs = np.array([[int(i in pos) for i in range(7)]
                      for pos in itertools.combinations(range(7), 2)], dtype=np.uint8)
    codewords = np.repeat(STEANE.outer.codewords(), len(pairs), axis=0)
    errors = np.tile(pairs, (16, 1))
    labels, _ = stage_correct_and_amplify(STEANE, errors, codewords)
    wrong = labels != _labels(STEANE, codewords @ STEANE.check_label_t & 1)
    return int(wrong.any(axis=1).sum()) / len(codewords)


def test_09_randomness_necessity():
    start = time.perf_counter()
    base_seed = 20_250
    hooked = steane_config(base_seed, random_assignment=False)

    # an adversary who knows the (non-random) assignment plants two flips in
    # each of the first two stage-1 blocks: all errors land in code bits
    clean = run_chunk(hooked, [hooked.rng_seed]).artifacts(0)
    blocks = clean.transcript.stage1_blocks
    target = blocks.positions[:2, :2].ravel()
    attack = AttackModel.correlated_positions(target, 1.0)
    outcome, _ = run_protocol(hooked, attack)
    scenario_ok = (outcome.observed_check_error_rate == 0.0
                   and not outcome.aborted
                   and outcome.keys_equal is False)

    # with randomization back on, the same attack must be detected or
    # corrected except at a rate bounded by the miscorrection envelope:
    # all 4 flips sifted x all 4 drawn into code bits x paired 2+2 into two
    # blocks x the exhaustive weight-2 label-mismatch fixture
    fixture = weight2_label_mismatch_fixture()
    p_sift = 0.5 ** 4
    p_code = (49 * 48 * 47 * 46) / (98 * 97 * 96 * 95)
    p_pair = (math.comb(7, 2) * math.comb(7, 2) ** 2) / math.comb(49, 4)
    bound = p_sift * p_code * p_pair * fixture
    trials = 1000
    undetected = 0
    for i in range(1, trials + 1):
        cfg = steane_config(base_seed + i)
        out, _ = run_protocol(cfg, attack)
        if not out.aborted and out.keys_equal is False:
            undetected += 1
    limit = bound + 3 * math.sqrt(bound * (1 - bound) / trials)
    rate = undetected / trials
    elapsed = time.perf_counter() - start
    ok = scenario_ok and fixture == 1.0 and rate <= limit and elapsed < 60
    report("09 randomness necessity", ok,
           f"fixed-assignment cheat: zero check errors + key mismatch = {scenario_ok}; "
           f"randomized: undetected {undetected}/{trials} (rate {rate:.4f} <= "
           f"bound {bound:.2e} + 3sigma = {limit:.4f}), fixture={fixture}, "
           f"{elapsed:.1f}s (<60s)")


def test_10_transcript_replay(tmp_path):
    start = time.perf_counter()
    out_dir = tmp_path / "runs"
    code = cli_main(["run", "--trials", "100", "--seed", "500", "--attack", "bitflip",
                     "--noise-p", "0.03", "--out-dir", str(out_dir), "--dump-transcripts"])
    assert code == 0
    exact = 0
    for i in range(100):
        stem = out_dir / "transcripts" / f"trial_{i:05d}"
        transcript = parse_transcript((stem.with_suffix(".transcript")).read_text())
        bases, bits, key = parse_bob(stem.with_suffix(".bob").read_text())
        result = replay_bob(transcript, bases, bits, steane_config(500 + i))
        recomputed = str(result.key) if result.key is not None else "-"
        recorded = key
        exact += recomputed == recorded
    elapsed = time.perf_counter() - start
    ok = exact == 100 and elapsed < 10
    report("10 transcript replay", ok,
           f"bit-identical replays {exact}/100, {elapsed:.1f}s (<10s)")
