"""Repeated roots with exact truth: each answer is right, refused or wrong, never wrong."""

import pytest

from sldlab import TrigPoly, autocorrelation, enumerate_classes, factor_sld
from sldlab.errors import SldLabError

from oracles import DYADIC_EXAMPLES, dyadic_class_count, dyadic_draws, dyadic_signal

_DRAWS = dyadic_draws(seed=19, count=60)


def _outcomes(decide):
    """(right, refused, wrong): wrong lists (picks, truth, count) per draw."""
    right, refused, wrong = 0, 0, []
    for picks in _DRAWS:
        p = TrigPoly(m=len(picks) // 2, coeffs=dyadic_signal(picks))
        truth = dyadic_class_count(picks)
        try:
            count = decide(p).exact_count
        except SldLabError:
            refused += 1
            continue
        if count == truth:
            right += 1
        else:
            wrong.append((picks, truth, count))
    return right, refused, wrong


def test_the_battery_holds_repeated_roots_and_the_examples():
    assert len(_DRAWS) == 63 and _DRAWS[-3:] == DYADIC_EXAMPLES
    assert [dyadic_class_count(picks) for picks in DYADIC_EXAMPLES] == [4, 4, 24]
    assert {len(picks) for picks in _DRAWS} == {2, 4, 6, 8}
    repeated = [picks for picks in _DRAWS if max(map(picks.count, picks)) > 1]
    assert len(repeated) >= 40


def test_factor_is_never_wrong_on_repeated_roots():
    right, refused, wrong = _outcomes(lambda p: factor_sld(autocorrelation(p)))
    assert not wrong, wrong
    assert right > refused


@pytest.mark.xfail(strict=True, reason="a root of multiplicity k splits on a ring of radius "
                   "about eps^(1/k), wider than enumerate's 1e-6 cluster radius, and each "
                   "split member counts as an orbit of its own")
def test_enumerate_is_never_wrong_on_repeated_roots():
    right, refused, wrong = _outcomes(enumerate_classes)
    assert not wrong, wrong
