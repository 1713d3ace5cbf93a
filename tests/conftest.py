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
