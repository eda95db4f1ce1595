"""bb84sim: simulator and analysis toolkit for the two-stage concatenated
BB84 key-distribution protocol, with the classical nested-code machinery for
error correction and privacy amplification."""

from .channel import AttackModel, Basis, attack_arrays
from .codes import (
    CssPair,
    LinearCode,
    SyndromeTable,
    builtin_pair,
    load_pair,
    make_golay_23_12,
    make_hamming_7_4,
)
from .gf2 import row_reduce, solve_membership
from .protocol import (
    ProtocolConfig,
    RunOutcome,
    replay_bob,
    run_protocol,
)
from .stats import (
    RecursionModel,
    SamplingModel,
    cheat_probability,
    cheat_probability_binomial,
    confidence_threshold,
    iterate_error_rate,
    sigma,
)
from .transcript import Transcript, dump_transcript, parse_transcript

__version__ = "0.1.0"
