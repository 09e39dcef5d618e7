"""Shared test set-up: a reproducible hypothesis profile for CI.

CI runs the suite with ``--hypothesis-profile=ci``: every run draws the
same examples, no example fails for its wall time on a slow shared
runner, and a failure prints the blob that reproduces it.  Runs without
the option keep hypothesis's default profile.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
