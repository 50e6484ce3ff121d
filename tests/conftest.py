import pytest

from logbg import models


@pytest.fixture
def cycle_calls(monkeypatch):
    """A list that gains one entry per CycleClass built in the test;
    clear it to start a new count."""
    calls = []
    real_post_init = models.CycleClass.__post_init__

    def counting_post_init(self):
        calls.append(1)
        real_post_init(self)

    monkeypatch.setattr(models.CycleClass, "__post_init__", counting_post_init)
    return calls
