import pytest

from bakerlab import ensemble


@pytest.fixture
def force_workers(monkeypatch):
    """``force_workers(n_ens, w)`` makes the ensemble reductions over
    ``n_ens`` members run on ``w`` workers, whatever the CPU count."""

    def force(n_ens: int, w: int) -> None:
        monkeypatch.setattr(ensemble, "_MIN_SPLIT_MEMBERS", max(n_ens // w, 1) if w > 1 else n_ens + 1)
        monkeypatch.setattr(ensemble.os, "sched_getaffinity", lambda pid: set(range(w)), raising=False)
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: w)
        assert ensemble.worker_count(n_ens) == w

    return force
