from collections import namedtuple

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


FoldCall = namedtuple("FoldCall", "est err verdicts exact")


@pytest.fixture
def fold_calls(monkeypatch):
    """A FoldCall for every LemmaReport.fold call, in order: its est and
    err columns, the verdict column it returns, and the indices of the
    cells it decided by the exact path, in call order."""
    calls = []
    fold = lm.LemmaReport.fold

    def captured(self, est, err, exact, instance):
        cells = []

        def counted(i):
            cells.append(i)
            return exact(i)

        verdicts = fold(self, est, err, counted, instance)
        calls.append(FoldCall(est, err, verdicts, cells))
        return verdicts

    monkeypatch.setattr(lm.LemmaReport, "fold", captured)
    return calls
