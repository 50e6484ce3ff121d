import sys
from fractions import Fraction

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


@pytest.fixture
def model_calls(monkeypatch):
    """A list that gains one entry per AmbientModel built in the test;
    clear it to start a new count."""
    calls = []
    real_init = models.AmbientModel.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(models.AmbientModel, "__init__", counting_init)
    return calls


@pytest.fixture
def fraction_calls(monkeypatch):
    """A list that gains one entry per Fraction built in the test."""
    calls = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        calls.append(1)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    return calls


@pytest.fixture
def tangent_calls(monkeypatch):
    """A list that gains the name of each tangent_coefficients and
    bg._check_polarization call made in the test, the work a report does
    once per model; clear it to start a new count."""
    from logbg import bg
    calls = []
    for real in (models.tangent_coefficients, bg._check_polarization):
        def counting(*args, real=real):
            calls.append(real.__name__)
            return real(*args)

        for name, module in list(sys.modules.items()):
            if ((name == "logbg" or name.startswith("logbg."))
                    and getattr(module, real.__name__, None) is real):
                monkeypatch.setattr(module, real.__name__, counting)
    return calls
