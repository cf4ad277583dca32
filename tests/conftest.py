"""Shared test settings.

The hypothesis profile ``ci`` draws the same examples on every run, so a
property that fails in CI fails the same way locally under
``HYPOTHESIS_PROFILE=ci``; the profile is chosen by that variable.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
