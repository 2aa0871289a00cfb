import os
import subprocess
import sys
from fractions import Fraction

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


@pytest.fixture
def fractions_built(monkeypatch):
    """fractions_built(f, *args) calls f and returns how many Fractions the
    call built.  Fraction.__new__ is wrapped for the test and restored after
    it, and so is the constructor that newer Pythons use to build a Fraction
    without it."""
    count = 0
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        nonlocal count
        count += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    if "_from_coprime_ints" in vars(Fraction):
        coprime = Fraction._from_coprime_ints.__func__

        def counted_coprime(cls, numerator, denominator, /):
            nonlocal count
            count += 1
            return coprime(cls, numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))

    def run(f, *args):
        nonlocal count
        count = 0
        f(*args)
        return count

    return run
