"""Repeated roots with exact truth: each answer is right, refused or wrong, never wrong."""

import pytest

from sldlab import (
    TrigPoly,
    autocorrelation,
    enumerate_classes,
    factor_sld,
    lift,
    numeric_magnitude_equiv,
    struct_magnitude_equiv,
)
from sldlab.errors import SldLabError

from oracles import (
    DYADIC_EXAMPLES,
    dyadic_class_count,
    dyadic_draws,
    dyadic_flip,
    dyadic_signal,
    kappa_grid,
    ratio_is_flat,
)

_DRAWS = dyadic_draws(seed=19, count=60)


def _signal(picks):
    return TrigPoly(m=len(picks) // 2, coeffs=dyadic_signal(picks))


def _outcomes(decide):
    """(right, refused, wrong): wrong lists (picks, truth, count) per draw."""
    right, refused, wrong = 0, 0, []
    for picks in _DRAWS:
        truth = dyadic_class_count(picks)
        try:
            count = decide(_signal(picks)).exact_count
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


def _equiv_outcomes(decide):
    """(right, refused, wrong) of decide on each draw with an off-circle
    root and its dyadic_flip: right is related with kappa within 1e-6,
    the tolerance at which equiv's two deciders agree."""
    right, refused, wrong = 0, 0, []
    for picks in _DRAWS:
        flip = dyadic_flip(picks)
        if flip is None:
            continue
        flipped, kappa = flip
        try:
            verdict = decide(lift(_signal(picks)), lift(_signal(flipped)))
        except SldLabError:
            refused += 1
            continue
        if verdict.related and abs(verdict.kappa - kappa) <= 1e-6 * kappa:
            right += 1
        else:
            wrong.append((picks, flipped, verdict))
    return right, refused, wrong


def test_the_flips_are_magnitude_equivalent():
    flips = [(picks, *flip) for picks in _DRAWS if (flip := dyadic_flip(picks))]
    assert len(flips) == 56
    for picks, flipped, kappa in flips:
        f, g = dyadic_signal(picks), dyadic_signal(flipped)
        assert ratio_is_flat(f, g, n=256)
        assert kappa_grid(f, g, n=256) == pytest.approx(kappa, rel=1e-12)
    # the first example's -1/2 x3 becomes -2 x3: kappa (1/2)^3
    assert dyadic_flip(DYADIC_EXAMPLES[0]) == ([4, 4, 4, 16], 0.125)


def test_the_lag_oracle_is_never_wrong_on_repeated_roots():
    right, refused, wrong = _equiv_outcomes(numeric_magnitude_equiv)
    assert not wrong, wrong
    assert (right, refused) == (56, 0)


@pytest.mark.xfail(strict=True, reason="a repeated root splits wider than the 1e-6 cluster "
                   "radius, so joint_orbits miscounts an orbit (\"orbit ... sums 0 for f but "
                   "1 for g\"); equiv reports the disagreement with the lag oracle and exits 2")
def test_struct_equiv_is_never_wrong_on_repeated_roots():
    right, refused, wrong = _equiv_outcomes(struct_magnitude_equiv)
    assert not wrong, wrong
