"""Hooks for every test directory.

The tests build the C step into a cache directory of their own, made for
the session and removed after it, so that a test run neither reads nor
writes the user's cache. Subprocesses that tests start inherit it.
"""

import os
import shutil
import tempfile

_cache = None


def pytest_configure(config):
    global _cache
    _cache = tempfile.mkdtemp(prefix="semihydro-test-cache-")
    os.environ["XDG_CACHE_HOME"] = _cache


def pytest_unconfigure(config):
    shutil.rmtree(_cache, ignore_errors=True)
