"""A per-test watchdog, since pytest-timeout is not a test dependency.

A test still running after TEST_TIMEOUT_S seconds (a deadlock, or a loop
that never ends) dumps every thread's traceback to the run's stderr and ends
the run, where it would otherwise hang it. The slowest test takes a few
seconds.
"""

import contextlib
import faulthandler
import os

import pytest

TEST_TIMEOUT_S = 300
_stderr = None  # the run's own stderr: output capture would swallow a dump


def pytest_configure(config):
    global _stderr
    capture = config.pluginmanager.getplugin("capturemanager")
    with (capture.global_and_fixture_disabled() if capture
          else contextlib.nullcontext()):
        _stderr = os.fdopen(os.dup(2), "w")


@pytest.fixture(autouse=True)
def _watchdog():
    faulthandler.dump_traceback_later(TEST_TIMEOUT_S, exit=True, file=_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


def pytest_unconfigure(config):
    _stderr.close()
