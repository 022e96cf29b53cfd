"""High-precision reference battery.

Each routine below is compared, on its exact float inputs, with a
reference that mpmath evaluates at 50 digits or more.  Every bound sits
about 100x above the worst deviation measured on the inputs tested here.
"""
import mpmath
import numpy as np
import pytest

from gategeom import volumes
from gategeom.geometry import WEYL_DENSITY_MAX, weyl_density_max_point
from gategeom.volumes import elliptic_E, elliptic_K


def rel_dev(got: float, want) -> float:
    return float(abs(mpmath.mpf(got) - want) / abs(want))


class TestEllipticIntegrals:
    """K and E by the AGM against ``mpmath.ellipk`` and ``mpmath.ellipe``,
    which take the parameter m = k^2; worst measured 1.7e-16 and 2.4e-16."""

    @pytest.mark.parametrize("k", [0.0, 1e-8, 0.1, 0.5, 0.9, 0.999, 1 - 1e-9])
    def test_against_mpmath(self, k):
        with mpmath.workdps(50):
            m = mpmath.mpf(k) ** 2
            assert rel_dev(elliptic_K(k), mpmath.ellipk(m)) <= 2e-14
            assert rel_dev(elliptic_E(k), mpmath.ellipe(m)) <= 2e-14


class TestDensityMaximum:
    """The peak is 12/pi at (pi/2, pi/4, 0); worst measured 3.7e-18
    relative in value and 6.1e-17 in position."""

    def test_located_peak(self):
        point, value = weyl_density_max_point()
        with mpmath.workdps(50):
            assert rel_dev(value, 12 / mpmath.pi) <= 4e-16
            want = (mpmath.pi / 2, mpmath.pi / 4, 0)
            pos = max(abs(mpmath.mpf(x) - w) for x, w in zip(point.as_tuple(), want))
            assert pos <= 6e-15

    def test_constant(self):
        with mpmath.workdps(50):
            assert rel_dev(WEYL_DENSITY_MAX, 12 / mpmath.pi) <= 4e-16


def _axis_parts(a):
    """G0, G1 and G2 of the c2 = c3 = 0 axis cube in trig form."""
    sin, cos, pi = mpmath.sin, mpmath.cos, mpmath.pi
    g0 = (8 * a + a * cos(3 * a) - 9 * a * cos(a)) / (2 * pi)
    g1 = (3 * a * cos(3 * a) - 3 * a * cos(a) - 3 * sin(3 * a) + 9 * sin(a)) / (2 * pi)
    g2 = (
        3 * a * cos(3 * a) - 3 * a * cos(a) - 6 * sin(3 * a) + 12 * sin(2 * a) - 6 * sin(a)
    ) / (2 * pi)
    return g0, g1, g2


def _corner(a):
    sin, cos = mpmath.sin, mpmath.cos
    return 3 * (
        8 * a + a * cos(3 * a) - 9 * a * cos(a) - 3 * sin(3 * a) + 12 * sin(2 * a) - 15 * sin(a)
    ) / (2 * mpmath.pi)


def _sqrt_swap(a):
    sin, cos = mpmath.sin, mpmath.cos
    return 3 * (2 * a * sin(3 * a) + 6 * a * sin(a) + 3 * cos(3 * a) - 3 * cos(a)) / (2 * mpmath.pi)


def _midpoint(a):
    sin, cos = mpmath.sin, mpmath.cos
    return (3 * cos(a) - 3 * cos(3 * a) - 4 * a * sin(3 * a)) / (2 * mpmath.pi)


def _axis_s0(a):
    g0, g1, g2 = _axis_parts(a)
    return g0 - g1 + g2


def _axis_s1(a):
    _, g1, g2 = _axis_parts(a)
    return g1 - 4 * g2


def _g2_bracket(a):
    return 3 * (2 - 2 * mpmath.cos(a) - a * mpmath.sin(a)) / mpmath.pi


#: Each exact series, its trig form written out by hand, the largest side
#: it is used at, and its bound.  Worst measured on the 800 sides tested:
#: corner 1.8e-15 at a = 3.0 (2.9e-15 at a = 3.12 on a finer grid), the
#: others 3.6e-16 to 5.3e-16.
SERIES = {
    "corner": ("_CORNER_SERIES", _corner, np.pi, 3e-13),
    "sqrt-swap": ("_SQRT_SWAP_SERIES", _sqrt_swap, np.pi / 2, 5e-14),
    "midpoint": ("_MIDPOINT_SERIES", _midpoint, np.pi / 4, 5e-14),
    "axis S0": ("_AXIS_S0", _axis_s0, np.pi / 2, 5e-14),
    "axis S1": ("_AXIS_S1", _axis_s1, np.pi / 2, 5e-14),
    "G2 bracket": ("_AXIS_G2_BRACKET", _g2_bracket, np.pi / 2, 5e-14),
}


class TestTrigSeries:
    """Every ``_TrigSeries`` against its trig form.  At a = 1e-6 the trig
    form cancels about 50 digits, so it is evaluated at 120."""

    @pytest.mark.parametrize("name", list(SERIES))
    def test_against_trig_form(self, name):
        attr, form, a_max, bound = SERIES[name]
        series = getattr(volumes, attr)
        sides = np.concatenate(
            [np.logspace(-6, np.log10(a_max), 400), np.linspace(a_max / 400, a_max, 400)]
        )
        with mpmath.workdps(120):
            worst = max(rel_dev(series(float(a)), form(mpmath.mpf(float(a)))) for a in sides)
        assert worst <= bound, worst

    def test_axis_g2_factors_through_its_bracket(self):
        """G2 = sin(2a) times the bracket, the identity the axis branch uses."""
        with mpmath.workdps(50):
            for a in (1e-3, 0.4, 1.0, np.pi / 2):
                a = mpmath.mpf(a)
                assert abs(_axis_parts(a)[2] - mpmath.sin(2 * a) * _g2_bracket(a)) < 1e-45
