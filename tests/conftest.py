"""Hypothesis runs derandomized and without per-example deadlines, so the
property tests draw the same examples on every run and on a slow host."""

try:
    from hypothesis import settings
except ImportError:  # test_properties.py skips itself
    pass
else:
    settings.register_profile("deterministic", derandomize=True, deadline=None)
    settings.load_profile("deterministic")
