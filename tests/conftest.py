"""Settings the whole suite shares."""

from hypothesis import settings

# `--hypothesis-profile=ci` (the CI tier-1 step) draws the same examples on
# every run, so that a failure found there reproduces anywhere, and lifts the
# per-example deadline, which a loaded runner can miss
settings.register_profile("ci", derandomize=True, deadline=None)
