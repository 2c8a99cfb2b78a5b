"""Truncated bivariate Taylor arithmetic against finite-difference oracles."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minksurf import jets as jt


def var_pair(u0: float, v0: float, k: int = 3):
    return jt.jet_variable("u", u0, k), jt.jet_variable("v", v0, k)


class TestConstruction:
    def test_constant_has_zero_derivatives(self):
        c = jt.Jet.constant(2.5, 3)
        assert c.value() == 2.5
        assert all(c.coeff(i, j) == 0.0
                   for i in range(4) for j in range(4 - i) if i + j > 0)

    def test_variable_axes(self):
        u, v = var_pair(0.1, 0.2)
        assert (u.coeff(1, 0), u.coeff(0, 1)) == (1.0, 0.0)
        assert (v.coeff(1, 0), v.coeff(0, 1)) == (0.0, 1.0)
        assert u.value() == 0.1 and v.value() == 0.2

    def test_variable_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            jt.jet_variable("w", 0.0, 3)

    @pytest.mark.parametrize("k", [0, 1, 2, 5, -1])
    def test_unsupported_orders_rejected(self, k):
        with pytest.raises(jt.UnsupportedOrder):
            jt.jet_variable("u", 0.0, k)

    def test_coeff_beyond_order_raises(self):
        u, _ = var_pair(0.0, 0.0)
        with pytest.raises(jt.OrderExceeded):
            u.coeff(2, 2)


# polynomial in u, v with every arithmetic op; value path for the FD oracle
def poly_value(u: float, v: float) -> float:
    return (u * u * v - 3.0 * u + v ** 3) / (2.0 + u * v) + (1.0 + u) ** 2


def poly_jet(u0: float, v0: float, k: int = 3) -> jt.Jet:
    u, v = var_pair(u0, v0, k)
    return (u * u * v - 3.0 * u + v ** 3) / (u * v + 2.0) + (u + 1.0) ** 2


class TestFiniteDifferenceOracle:
    @pytest.mark.parametrize("u0,v0", [(0.0, 0.0), (0.3, -0.4), (1.1, 0.7)])
    @pytest.mark.parametrize("i,j", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
    def test_rational_polynomial(self, u0, v0, i, j):
        want = jt.fd_partial(poly_value, u0, v0, i, j, step=1e-4)
        got = jt.partial(poly_jet(u0, v0), i, j)
        # abs floor sized to second-difference roundoff at this step
        assert got == pytest.approx(want, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("i,j", [(3, 0), (2, 1), (1, 2), (0, 3)])
    def test_third_order_partials(self, i, j):
        # third differences lose more bits; a looser step wins back accuracy
        want = jt.fd_partial(poly_value, 0.3, -0.4, i, j, step=1e-2)
        got = jt.partial(poly_jet(0.3, -0.4), i, j)
        assert got == pytest.approx(want, rel=1e-5, abs=1e-6)

    @pytest.mark.parametrize("name,jfn,vfn,u0", [
        ("sin", jt.sin, math.sin, 0.5),
        ("cos", jt.cos, math.cos, 0.5),
        ("sinh", jt.sinh, math.sinh, 0.5),
        ("cosh", jt.cosh, math.cosh, 0.5),
        ("exp", jt.exp, math.exp, 0.5),
        ("sqrt", jt.sqrt, math.sqrt, 1.3),
        ("log", jt.log, math.log, 1.3),
    ])
    def test_elementary_chain(self, name, jfn, vfn, u0):
        def value(u, v):
            return vfn(u + 0.5 * v * v)

        u, v = var_pair(u0, 0.4)
        got = jfn(u + 0.5 * v * v)
        assert got.value() == pytest.approx(value(u0, 0.4), rel=1e-12)
        for i, j in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            want = jt.fd_partial(value, u0, 0.4, i, j, step=1e-4)
            assert jt.partial(got, i, j) == pytest.approx(want, rel=1e-6, abs=1e-7)


class TestAlgebra:
    scalars = st.floats(min_value=-3.0, max_value=3.0,
                        allow_nan=False, allow_infinity=False)

    @given(a=scalars, b=scalars)
    def test_product_rule(self, a, b):
        u, v = var_pair(a, b)
        p = jt.sin(u) * (v * v + 1.0)
        # d/du [sin(u) (v^2+1)] = cos(u) (v^2+1)
        assert jt.partial(p, 1, 0) == pytest.approx(
            math.cos(a) * (b * b + 1.0), rel=1e-12, abs=1e-12)
        assert jt.partial(p, 1, 1) == pytest.approx(
            math.cos(a) * 2.0 * b, rel=1e-12, abs=1e-12)

    @given(a=scalars)
    @settings(max_examples=50)
    def test_pythagorean_identity(self, a):
        u, _ = var_pair(a, 0.0)
        s = jt.sin(u) * jt.sin(u) + jt.cos(u) * jt.cos(u)
        assert s.value() == pytest.approx(1.0, abs=1e-12)
        for i in (1, 2, 3):
            assert jt.partial(s, i, 0) == pytest.approx(0.0, abs=1e-10)

    @given(a=st.floats(min_value=0.2, max_value=4.0, allow_nan=False))
    @settings(max_examples=50)
    def test_sqrt_squares_back(self, a):
        u, _ = var_pair(a, 0.0)
        r = jt.sqrt(u)
        sq = r * r
        assert sq.value() == pytest.approx(a, rel=1e-12)
        assert jt.partial(sq, 1, 0) == pytest.approx(1.0, rel=1e-10)
        assert jt.partial(sq, 2, 0) == pytest.approx(0.0, abs=1e-10)

    @given(a=scalars, n=st.integers(min_value=0, max_value=5))
    @settings(max_examples=60)
    def test_integer_power_matches_repeated_product(self, a, n):
        u, _ = var_pair(a, 0.0)
        byop = (u + 2.0) ** n
        bymul = jt.Jet.constant(1.0, 3)
        for _ in range(n):
            bymul = bymul * (u + 2.0)
        assert byop.coeffs == pytest.approx(bymul.coeffs, rel=1e-12, abs=1e-12)

    def test_reciprocal(self):
        u, _ = var_pair(2.0, 0.0)
        r = jt.reciprocal(u)
        assert r.value() == pytest.approx(0.5)
        assert jt.partial(r, 1, 0) == pytest.approx(-0.25)
        assert jt.partial(r, 2, 0) == pytest.approx(0.25)

    def test_division_is_multiplication_by_reciprocal(self):
        u, v = var_pair(0.5, -0.3)
        lhs = (u + v) / (u * u + 1.0)
        rhs = (u + v) * jt.reciprocal(u * u + 1.0)
        assert lhs.coeffs == pytest.approx(rhs.coeffs, rel=1e-13, abs=1e-15)


class TestDerivAndTruncate:
    def test_deriv_u_drops_order(self):
        p = poly_jet(0.3, 0.2, 3)
        d = p.deriv_u()
        assert d.order == 2
        assert d.value() == pytest.approx(jt.partial(p, 1, 0), rel=1e-12)
        assert jt.partial(d, 1, 1) == pytest.approx(jt.partial(p, 2, 1), rel=1e-10)

    def test_deriv_v_matches_coefficients(self):
        p = poly_jet(0.3, 0.2, 4)
        d = p.deriv_v()
        assert d.order == 3
        assert jt.partial(d, 0, 2) == pytest.approx(jt.partial(p, 0, 3), rel=1e-10)

    def test_truncated(self):
        p = poly_jet(0.1, 0.2, 4)
        t = p.truncated(3)
        assert t.order == 3
        assert t.coeff(2, 1) == p.coeff(2, 1)

    def test_mixed_partials_commute(self):
        p = poly_jet(0.7, -0.2, 4)
        assert p.deriv_u().deriv_v().coeffs == pytest.approx(
            p.deriv_v().deriv_u().coeffs, rel=1e-12, abs=1e-14)


class TestErrorPaths:
    def test_sqrt_of_negative(self):
        with pytest.raises(jt.DomainError):
            jt.sqrt(jt.Jet.constant(-1.0, 3))

    def test_log_of_nonpositive(self):
        with pytest.raises(jt.DomainError):
            jt.log(jt.Jet.constant(0.0, 3))

    def test_divide_by_zero_value(self):
        u, _ = var_pair(0.0, 0.0)
        with pytest.raises(jt.DivisionByZeroValue):
            jt.reciprocal(u)

    def test_pow_requires_integer_exponent(self):
        u, _ = var_pair(1.0, 0.0)
        with pytest.raises(TypeError):
            u ** 0.5
