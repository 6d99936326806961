"""Shared test configuration.

Property tests run a fixed, derandomized example sequence with no
deadline and no example database, so every run checks the same cases.
Hypothesis keeps its other caches in a temporary directory that is
removed when the session ends, so the tests write nothing to the working
tree and leave no ResourceWarning for interpreter exit.

When a property fails, Hypothesis's pytest plugin imports
``hypothesis.extra._patching``, and libcst, which that module imports,
raises a DeprecationWarning while it loads.  Under the suite's
``filterwarnings = ["error"]`` that warning would end the whole session
inside the report hook, so the module is imported once here with its
load-time warnings silenced; the suite's warning policy is unchanged.
"""

import tempfile
import warnings

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin skips that import itself
        pass


def pytest_unconfigure(config):
    _HYPOTHESIS_HOME.cleanup()
