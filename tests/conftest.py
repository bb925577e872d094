import multiprocessing
import os

import pytest


def no_child_left():
    """Assert that no worker process is left alive or unreaped."""
    assert multiprocessing.active_children() == []
    # Every forked worker has been reaped: no zombie is left to wait for.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
