"""Fixtures shared across test files."""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from demandrec import kernels


class CountingExecutor(ThreadPoolExecutor):
    """A second thread for ``kernels.in_halves`` that records the threads
    which ran the halves handed to it."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.threads = set()

    def submit(self, fn, *args):
        def run(*a):
            self.threads.add(threading.get_ident())
            return fn(*a)

        return super().submit(run, *args)


@pytest.fixture
def two_threads(monkeypatch):
    """A second thread for the split passes on any host, one CPU or more."""
    executor = CountingExecutor()
    monkeypatch.setattr(kernels, "_second", (os.getpid(), executor))
    yield executor
    executor.shutdown()
