"""Shared test configuration.

Property tests run a fixed, derandomized example sequence with no
deadline and no example database, so every run checks the same cases.
Hypothesis keeps its other caches in a temporary directory that is
removed at exit, so the tests write nothing to the working tree.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
