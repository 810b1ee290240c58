import numpy as np
import pytest
from hypothesis import HealthCheck, assume, settings, strategies as st

from sldlab import RootMultiset, TrigPoly, roots

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
settings.load_profile("suite")


# roots kept clear of the unit circle so classification is unambiguous
def off_circle_radius():
    return st.one_of(st.floats(0.2, 0.8), st.floats(1.3, 4.0))


@st.composite
def separated_roots(draw, min_count=1, max_count=4):
    count = draw(st.integers(min_count, max_count))
    roots = []
    for _ in range(count):
        r = draw(off_circle_radius())
        a = draw(st.floats(0.0, 2 * np.pi, exclude_max=True))
        z = complex(r * np.cos(a), r * np.sin(a))
        assume(not any(abs(z - w) < 0.08 or abs(z - 1 / w.conjugate()) < 0.08
                       for w in roots))
        roots.append(z)
    return roots


@st.composite
def complex_vectors(draw, size, max_mag=3.0):
    parts = draw(
        st.lists(
            st.floats(-max_mag, max_mag, allow_nan=False),
            min_size=2 * size,
            max_size=2 * size,
        )
    )
    vec = np.array(parts[:size]) + 1j * np.array(parts[size:])
    assume(np.abs(vec).max() >= 0.1)
    return vec


@st.composite
def trig_polys(draw, max_m=3):
    m = draw(st.integers(0, max_m))
    return TrigPoly(m=m, coeffs=draw(complex_vectors(2 * m + 1)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


def poly_from_roots(roots, lead=1.0):
    """Coefficient vector of lead * prod (z - r), ascending."""
    coeffs = np.array([complex(lead)])
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([-complex(r), 1.0 + 0j]))
    return coeffs


def root_multiset(rows, origin=0, degree=None, leading=1.0):
    """A RootMultiset of (location, multiplicity, label) or (location,
    multiplicity, label, diameter) rows, in the order given; the degree
    defaults to origin plus the multiplicities."""
    rows = [tuple(row) + (0.0,) * (4 - len(row)) for row in rows]
    loc, mult, label, diam = zip(*rows) if rows else ((),) * 4
    return RootMultiset(
        np.array(loc, dtype=complex), np.array(mult, dtype=np.intp),
        np.array(label, dtype=str), np.array(diam, dtype=float),
        origin_mult=origin, degree=origin + sum(mult) if degree is None else degree,
        leading_coeff=leading,
    )


def roots_at(polys, cluster_radius):
    """find_roots_batch of polys with the approximations clustered at
    cluster_radius, the radius factor_sld widens on a retry."""
    return next(roots._rungs(polys, (cluster_radius,)))
