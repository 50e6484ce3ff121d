import pytest

from logbg import chow


@pytest.fixture
def mul_calls(monkeypatch):
    """A list that gains one entry per chow.mul call made in the test;
    clear it to start a new count."""
    calls = []
    real_mul = chow.mul

    def counting_mul(a, b):
        calls.append(1)
        return real_mul(a, b)

    monkeypatch.setattr(chow, "mul", counting_mul)
    return calls


@pytest.fixture
def cycle_calls(monkeypatch):
    """A list that gains one entry per CycleClass built in the test;
    clear it to start a new count."""
    calls = []
    real_post_init = chow.CycleClass.__post_init__

    def counting_post_init(self):
        calls.append(1)
        real_post_init(self)

    monkeypatch.setattr(chow.CycleClass, "__post_init__", counting_post_init)
    return calls
