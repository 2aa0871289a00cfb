import os
import subprocess
import sys

import pytest

import loopcorr


@pytest.fixture
def fresh_python():
    """Run a new interpreter, with the given arguments, that imports this
    checkout's loopcorr; returns the completed process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(loopcorr.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))

    def run(*args):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=env, timeout=120)

    return run
