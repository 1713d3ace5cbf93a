from multiprocessing.process import BaseProcess

import pytest

from qhuff import verify
from qhuff.verify import SeriesCache


@pytest.fixture(scope="session")
def cache():
    """Shared family expansions so heavyweight orders are paid for once."""
    return SeriesCache()


@pytest.fixture(scope="session")
def exact_report():
    """The reference claim scan: the family's exact coefficients.

    ``verify_claim`` reads residues; this reads ``cache.family``, so tests
    that assert against it still check exact coefficients.
    """
    def scan(claim, n_max, cache):
        top = claim.stride * n_max + claim.offset
        return verify._scan(claim, n_max, cache.family(claim.family, top))

    return scan


@pytest.fixture
def workers(monkeypatch):
    """Two usable CPUs, whatever the host has; the worker processes started."""
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    started = []
    start = BaseProcess.start

    def recording(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(BaseProcess, "start", recording)
    return started


@pytest.fixture
def no_workers(monkeypatch):
    def refuse(self):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(BaseProcess, "start", refuse)
