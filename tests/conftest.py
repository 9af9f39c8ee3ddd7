"""Fixtures shared by the test modules."""

import pytest

from twobridge.padics import PadicSeries


def _dense(f: PadicSeries) -> bool:
    return len(f.coeffs) - f.coeffs.count(0) > 2


@pytest.fixture
def series_products(monkeypatch):
    """A list that gets one entry per product of two series made while
    the test runs: True when both operands have more than two nonzero
    coefficients (a dense product), False otherwise."""
    log = []
    mul = PadicSeries.__mul__

    def counting(self, other):
        if isinstance(other, PadicSeries):
            log.append(_dense(self) and _dense(other))
        return mul(self, other)

    monkeypatch.setattr(PadicSeries, "__mul__", counting)
    monkeypatch.setattr(PadicSeries, "__rmul__", counting)
    return log
