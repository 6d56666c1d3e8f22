import pytest

from nonresidues import lemmas as lm
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


@pytest.fixture
def lemma_records(monkeypatch):
    """Every (instance, passed, slack, vacuous) that a sweep passes to
    LemmaReport.record, in order."""
    records = []
    record = lm.LemmaReport.record

    def captured(self, instance, passed, slack, vacuous=False):
        records.append((instance, passed, slack, vacuous))
        record(self, instance, passed, slack, vacuous)

    monkeypatch.setattr(lm.LemmaReport, "record", captured)
    return records
