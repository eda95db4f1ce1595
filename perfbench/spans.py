"""In-memory span tracer that wraps bb84sim's public functions at module
boundaries, without changing anything under ``src/``.

Each wrapped name is rebound where its caller looks it up (a module global
that the caller imported by name, or a class attribute), and restored by
``uninstall``.  A span is ``(name, start, end, parent, trial)``: ``parent`` is
the index of the enclosing span or -1, and ``trial`` is the id of the
enclosing root span (one protocol trial or one replay) or -1 outside any.
Count-only wrappers record how often a cheap constructor runs per root kind
without the cost of a span.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time
from collections import Counter, defaultdict

SPAN = "span"
ROOT = "root"
COUNT = "count"


# (module, class or None, attribute, span name, kind): every boundary the
# benchmark traces, named where the callers look the names up.
TARGETS = [
    ("bb84sim.cli", None, "cmd_run", "cli.cmd_run", SPAN),
    ("bb84sim.cli", None, "run_protocol_full", "protocol.run_protocol_full", ROOT),
    ("bb84sim.cli", None, "dump_transcript", "transcript.dump", SPAN),
    ("bb84sim.protocol", None, "attack_arrays", "channel.attack_arrays", SPAN),
    ("bb84sim.kernels", None, "measure_bits", "kernels.measure_bits", SPAN),
    ("bb84sim.protocol", None, "sift", "protocol.sift", SPAN),
    ("bb84sim.protocol", None, "check_and_decide", "protocol.check", SPAN),
    ("bb84sim.protocol", None, "_alice_stage", "protocol.alice_stage", SPAN),
    ("bb84sim.protocol", None, "stage_correct_and_amplify", "protocol.bob_stage", SPAN),
    ("bb84sim.protocol", None, "replay_bob", "protocol.replay_bob", SPAN),
    ("bb84sim.protocol", None, "decode_to_codeword", "codes.decode", SPAN),
    ("bb84sim.protocol", None, "random_codeword", "codes.random_codeword", SPAN),
    ("bb84sim.codes", "CssPair", "coset_label", "codes.coset_label", SPAN),
    ("bb84sim.codes", "CssPair", "project_label", "codes.project_label", SPAN),
    ("bb84sim.codes", None, "mat_vec", "gf2.mat_vec", SPAN),
    ("bb84sim.transcript", None, "parse_transcript", "transcript.parse", SPAN),
    ("bb84sim.gf2", "BitVector", "__init__", "gf2.BitVector", COUNT),
]


def default_targets():
    """(owner, attribute, span name, kind) for each entry of TARGETS that
    exists in the program; a name a later refactor removed is skipped, and
    the metrics built on it read 0."""
    targets = []
    for module_name, class_name, attr, name, kind in TARGETS:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            continue
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        if owner is not None and attr in vars(owner):
            targets.append((owner, attr, name, kind))
    return targets


class Tracer:
    """Records spans and counts while installed; restores every name after."""

    def __init__(self, targets=None):
        self.targets = default_targets() if targets is None else list(targets)
        self.spans: list = []
        self.counts: Counter = Counter()
        self.root_kind: dict[int, str] = {}
        self._stack: list[int] = []
        self._trial = -1
        self._originals: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, kind):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        if kind == COUNT:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name, self.root_kind.get(self._trial)] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_trial = self._trial
            if kind == ROOT:
                self._trial = len(self.root_kind)
                self.root_kind[self._trial] = name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._trial)
                self._trial = outer_trial

        return traced

    def root(self, name, fn, *args, **kwargs):
        """Call fn as one root span (used for work with no single entry
        point in the program, such as parse-then-replay)."""
        return self._wrap(name, fn, ROOT)(*args, **kwargs)

    # -- installing --------------------------------------------------------

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, kind in self.targets:
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, kind))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent", "trial"])
            writer.writerows(self.spans)


def snapshot(targets):
    """Current bindings of every target, for an identity check later."""
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]


def unrestored(originals):
    """Names of the snapshot entries whose binding is no longer the original."""
    return [f"{owner.__name__}.{attr}" for owner, attr, original in originals
            if vars(owner)[attr] is not original]


def union_length(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span: its duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, trial in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - union_length(children.get(i, ()), start, end)
            for i, (name, start, end, parent, trial) in enumerate(spans)]


class Totals:
    """Per span name, over spans inside roots of one kind: calls, inclusive
    seconds and self seconds; stage-ordered totals for names called more
    than once per root."""

    def __init__(self, tracer: Tracer, root: str):
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.nth_seconds: Counter = Counter()
        self.roots = sum(1 for kind in tracer.root_kind.values() if kind == root)
        seen: Counter = Counter()
        own = self_times(tracer.spans)
        for (name, start, end, parent, trial), self_s in zip(tracer.spans, own):
            if tracer.root_kind.get(trial) != root:
                continue
            self.calls[name] += 1
            self.seconds[name] += end - start
            self.self_seconds[name] += self_s
            seen[name, trial] += 1
            self.nth_seconds[name, seen[name, trial]] += end - start
        self.counts = Counter({name: n for (name, kind), n in tracer.counts.items()
                               if kind == root})
