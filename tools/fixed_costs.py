"""Print the fixed costs around the draws of `bb84sim run`, per built-in pair:

    PYTHONPATH=src python tools/fixed_costs.py

For each pair, run as both stages under bitflip 0.03 (the benchmark's
golay-bitflip and steane-bitflip settings), it prints:
- pair: `codes.builtin_pair(name)` in ms, median of 200 builds;
- table: `SyndromeTable.build` of its outer code in ms, median of 200 builds;
- chunk fixed: the cost a chunk carries whatever its size, in ms: a chunk of
  one trial (the mean of 8 run back to back) minus one trial's share of a
  full chunk (as many trials as `bb84sim run` puts in one), the median over
  200 interleaved pairs of the two, every chunk on fresh seeds;
- csv row: the cost of one trials.csv row in us, `cli._trial_rows` of a full
  chunk written by `csv.writer`, median of 200 writes.

Times are CPU seconds of this process (`time.process_time`), so compare
runs made on one machine, interleaved, rather than across machines.
"""

import csv
import io
import statistics
import time

from bb84sim import cli
from bb84sim.channel import AttackModel
from bb84sim.codes import BUILTIN_PAIR_NAMES, SyndromeTable, builtin_pair
from bb84sim.protocol import ProtocolConfig, run_chunk

ATTACK = AttackModel.bitflip(0.03)
REPEATS = 200
# the chunks of one trial on each side of a chunk-cost pair
SINGLES = 8


def seconds(fn, *args) -> float:
    """The CPU seconds of one call, which time spent descheduled does not
    inflate."""
    start = time.process_time()
    fn(*args)
    return time.process_time() - start


def median_ms(fn, *args) -> float:
    return statistics.median(seconds(fn, *args) for _ in range(REPEATS)) * 1e3


def chunk_fixed_ms(config: ProtocolConfig, size: int) -> float:
    """A chunk of one trial minus one trial's share of a chunk of `size`,
    median over interleaved pairs.  The one-trial side is the mean of
    SINGLES chunks of one run back to back, as single trials run; every
    chunk runs on fresh seeds."""
    differences = []
    for r in range(REPEATS):
        seeds = range(r * (size + SINGLES), (r + 1) * (size + SINGLES))
        one = sum(seconds(run_chunk, config, seeds[i:i + 1], ATTACK) for i in range(SINGLES))
        full = seconds(run_chunk, config, seeds[SINGLES:], ATTACK)
        differences.append(one / SINGLES - full / size)
    return statistics.median(differences) * 1e3


def csv_row_us(config: ProtocolConfig, size: int) -> float:
    chunk = run_chunk(config, range(size), ATTACK)

    def write():
        csv.writer(io.StringIO()).writerows(cli._trial_rows(chunk, 0, 0))

    return median_ms(write) * 1e3 / size


def main() -> None:
    print(f"{'pair':8} {'pair ms':>8} {'table ms':>9} {'trials':>6} {'chunk fixed ms':>15} "
          f"{'csv row us':>11}")
    for name in BUILTIN_PAIR_NAMES:
        pair = builtin_pair(name)
        config = ProtocolConfig(pair, pair, abort_threshold=0.124)
        # as `bb84sim run` sizes its chunks
        size = max(1, cli.QUBITS_PER_CHUNK // config.transmitted_count)
        # the first chunk builds the syndrome table and caches the pair's
        # arrays, which every later chunk of a run reuses
        run_chunk(config, range(size), ATTACK)
        print(f"{name:8} {median_ms(builtin_pair, name):8.3f} "
              f"{median_ms(SyndromeTable.build, pair.outer):9.3f} {size:6d} "
              f"{chunk_fixed_ms(config, size):15.4f} {csv_row_us(config, size):11.3f}")


if __name__ == "__main__":
    main()
