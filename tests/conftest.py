"""Shared test configuration: a deterministic hypothesis profile."""

from hypothesis import settings

# Derandomized examples keep every run of the suite identical; the kernel
# is cheap but a solve per example can exceed the default deadline on a
# loaded machine.
settings.register_profile("rigidflock", derandomize=True, deadline=None)
settings.load_profile("rigidflock")
