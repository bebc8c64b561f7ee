"""Test-session settings.

Where ``CI`` is set, a failing Hypothesis test prints its
``@reproduce_failure`` blob, so a CI failure can be replayed locally even
though the example database does not outlive the run. The profile keeps the
settings already in effect (example counts, deadlines, randomness) and only
turns the blob on. Recent Hypothesis releases load a built-in ``ci`` profile
that prints it already; this covers the releases that do not.
"""

import os

from hypothesis import settings

if "CI" in os.environ:
    settings.register_profile("ci-print-blob", parent=settings.default, print_blob=True)
    settings.load_profile("ci-print-blob")
