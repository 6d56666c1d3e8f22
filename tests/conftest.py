import pytest

from nonresidues import scan as sc


@pytest.fixture
def pool_starts(monkeypatch):
    """The max_workers of every scan worker pool started, in order."""
    starts = []
    pool = sc.ProcessPoolExecutor

    def counted(max_workers):
        starts.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(sc, "ProcessPoolExecutor", counted)
    return starts
