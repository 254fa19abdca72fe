"""Dipole-dipole coupling tests against a literal constants-arithmetic
oracle."""

import math

import pytest

from ybqc.atomic import AtomParams
from ybqc.dipole import (auxiliary_qubit_moments, cnot_shift, ddi_coupling,
                         pair_coupling)
from ybqc.errors import PhysicsError

# independent CODATA-2022 literals (not imported from the package)
MU_0 = 1.25663706127e-6
H = 6.62607015e-34
MU_B = 9.2740100657e-24
MU_N = 5.0507837393e-27
SPACING = 266e-9


def oracle(m1, m2, r, theta):
    return MU_0 / (4 * math.pi * H) * m1 * m2 \
        * (1 - 3 * math.cos(theta) ** 2) / r ** 3


def test_matches_constants_arithmetic_oracle():
    for m1, m2 in [(3 * MU_B, 3 * MU_B), (0.49367 * MU_N, 0.49367 * MU_N),
                   (2.7 * MU_B, -2.7 * MU_B)]:
        for theta in (0.0, math.pi / 4, math.pi / 2):
            got = ddi_coupling(m1, m2, SPACING, theta)
            want = oracle(m1, m2, SPACING, theta)
            assert got == pytest.approx(want, rel=1e-10)


def test_electronic_pair_axial_magnitude():
    # 3 mu_B pair along z: |1 - 3cos^2| = 2 doubles the radial prefactor
    val = ddi_coupling(3 * MU_B, 3 * MU_B, SPACING, 0.0)
    assert val < 0
    assert abs(val) == pytest.approx(12.41, rel=0.01)


def test_nuclear_pair_axial_magnitude():
    val = ddi_coupling(0.49367 * MU_N, 0.49367 * MU_N, SPACING, 0.0)
    assert abs(val) == pytest.approx(99.7e-9, rel=0.01)


def test_magic_angle_zero():
    theta_magic = math.acos(1 / math.sqrt(3))
    assert abs(ddi_coupling(3 * MU_B, 3 * MU_B, SPACING, theta_magic)) \
        < 1e-12


def test_symmetry_and_scaling():
    a = ddi_coupling(2 * MU_B, 3 * MU_B, SPACING, 0.3)
    b = ddi_coupling(3 * MU_B, 2 * MU_B, SPACING, 0.3)
    assert a == pytest.approx(b, rel=1e-15)
    # bilinear in the moments
    c = ddi_coupling(4 * MU_B, 6 * MU_B, SPACING, 0.3)
    assert c == pytest.approx(4 * a, rel=1e-12)
    # 1/r^3: doubling the spacing divides by 8
    d = ddi_coupling(2 * MU_B, 3 * MU_B, 2 * SPACING, 0.3)
    assert a == pytest.approx(8 * d, rel=1e-12)


def test_pair_coupling_vector_form():
    origin = (0.0, 0.0, 0.0)
    assert pair_coupling(origin, (0.0, 0.0, SPACING)) == pytest.approx(
        ddi_coupling(1.0, 1.0, SPACING, 0.0), rel=1e-12)
    assert pair_coupling(origin, (SPACING, 0.0, 0.0)) == pytest.approx(
        ddi_coupling(1.0, 1.0, SPACING, math.pi / 2), rel=1e-12)
    # off-axis separation: r and theta from the vector, either order
    r = math.sqrt(2) * SPACING
    want = ddi_coupling(1.0, 1.0, r, math.pi / 4)
    assert pair_coupling(origin, (SPACING, 0.0, SPACING)) == pytest.approx(
        want, rel=1e-12)
    assert pair_coupling((SPACING, 0.0, SPACING), origin) == pytest.approx(
        want, rel=1e-12)


def test_invalid_separation():
    with pytest.raises(PhysicsError):
        ddi_coupling(MU_B, MU_B, 0.0, 0.0)
    with pytest.raises(PhysicsError):
        pair_coupling((0, 0, 0), (0, 0, 0))


def test_auxiliary_moments_are_2p7_bohr():
    m0, m1 = auxiliary_qubit_moments(AtomParams())
    assert m0 == pytest.approx(2.7 * MU_B, rel=1e-6)
    assert m1 == pytest.approx(-2.7 * MU_B, rel=1e-6)


def test_conditional_shift_is_four_times_ddi():
    params = AtomParams()
    m0, m1 = auxiliary_qubit_moments(params)
    single = ddi_coupling(m1, m1, SPACING, 0.0)
    shift = cnot_shift(SPACING, params, theta=0.0)
    # (m1 - m0)^2 = 4 m1^2 for opposite equal moments
    assert shift == pytest.approx(4 * single, rel=1e-12)
    assert abs(shift) == pytest.approx(40.2, rel=0.01)
