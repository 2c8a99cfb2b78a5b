"""Truncated bivariate Taylor arithmetic against finite-difference oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minksurf import jets as jt

from oracles import fd_partial


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
        want = fd_partial(poly_value, u0, v0, i, j, step=1e-4)
        got = poly_jet(u0, v0).partial(i, j)
        # abs floor sized to second-difference roundoff at this step
        assert got == pytest.approx(want, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("i,j", [(3, 0), (2, 1), (1, 2), (0, 3)])
    def test_third_order_partials(self, i, j):
        # third differences lose more bits; a looser step wins back accuracy
        want = fd_partial(poly_value, 0.3, -0.4, i, j, step=1e-2)
        got = poly_jet(0.3, -0.4).partial(i, j)
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
            want = fd_partial(value, u0, 0.4, i, j, step=1e-4)
            assert got.partial(i, j) == pytest.approx(want, rel=1e-6, abs=1e-7)


class TestAlgebra:
    scalars = st.floats(min_value=-3.0, max_value=3.0,
                        allow_nan=False, allow_infinity=False)

    @given(a=scalars, b=scalars)
    def test_product_rule(self, a, b):
        u, v = var_pair(a, b)
        p = jt.sin(u) * (v * v + 1.0)
        # d/du [sin(u) (v^2+1)] = cos(u) (v^2+1)
        assert p.partial(1, 0) == pytest.approx(
            math.cos(a) * (b * b + 1.0), rel=1e-12, abs=1e-12)
        assert p.partial(1, 1) == pytest.approx(
            math.cos(a) * 2.0 * b, rel=1e-12, abs=1e-12)

    @given(a=scalars)
    @settings(max_examples=50)
    def test_pythagorean_identity(self, a):
        u, _ = var_pair(a, 0.0)
        s = jt.sin(u) * jt.sin(u) + jt.cos(u) * jt.cos(u)
        assert s.value() == pytest.approx(1.0, abs=1e-12)
        for i in (1, 2, 3):
            assert s.partial(i, 0) == pytest.approx(0.0, abs=1e-10)

    @given(a=st.floats(min_value=0.2, max_value=4.0, allow_nan=False))
    @settings(max_examples=50)
    def test_sqrt_squares_back(self, a):
        u, _ = var_pair(a, 0.0)
        r = jt.sqrt(u)
        sq = r * r
        assert sq.value() == pytest.approx(a, rel=1e-12)
        assert sq.partial(1, 0) == pytest.approx(1.0, rel=1e-10)
        assert sq.partial(2, 0) == pytest.approx(0.0, abs=1e-10)

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
        assert r.partial(1, 0) == pytest.approx(-0.25)
        assert r.partial(2, 0) == pytest.approx(0.25)

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
        assert d.value() == pytest.approx(p.partial(1, 0), rel=1e-12)
        assert d.partial(1, 1) == pytest.approx(p.partial(2, 1), rel=1e-10)

    def test_deriv_v_matches_coefficients(self):
        p = poly_jet(0.3, 0.2, 4)
        d = p.deriv_v()
        assert d.order == 3
        assert d.partial(0, 2) == pytest.approx(p.partial(0, 3), rel=1e-10)

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


# A (2, 5) stack of values that fails each operation at some points:
# <= 0, == 0, and past the overflow of exp (about 709.78) and of sinh
# and cosh (about 710.48).
STACKED = np.array([[0.5, -1.0, 0.0, 2.0, 800.0],
                    [750.0, 1.0, -720.0, 0.0, 710.0]])


@pytest.mark.parametrize("op, bad", [
    (jt.sqrt, STACKED <= 0.0),
    (jt.log, STACKED <= 0.0),
    (jt.reciprocal, STACKED == 0.0),
    (lambda a: a / STACKED, STACKED == 0.0),
    (lambda a: a / 0.0, np.ones(STACKED.shape, dtype=bool)),
    (jt.exp, STACKED > 709.8),
    (jt.sinh, abs(STACKED) > 710.5),
    (jt.cosh, abs(STACKED) > 710.5),
], ids=["sqrt", "log", "reciprocal", "per-point-division", "scalar-division",
        "exp", "sinh", "cosh"])
def test_failure_names_its_points(op, bad):
    # the error's points are True exactly where the operation fails
    x = jt.Jet.variable("u", STACKED, 3)
    with pytest.raises((jt.JetError, OverflowError)) as info:
        op(x)
    points = np.broadcast_to(info.value.points, STACKED.shape)
    assert points.tolist() == bad.tolist()


class TestBatch:
    @staticmethod
    def mixed(u, v):
        return (jt.sqrt(u * u + 1.0) * jt.sin(u * v)
                - jt.log(u + 2.0) / jt.cosh(v) + jt.exp(v) ** -2
                + (u - v) ** 3 * jt.sinh(u) / jt.cos(v))

    @pytest.mark.parametrize("k", [3, 4])
    def test_batch_matches_single_points(self, k):
        # every coefficient bit of a batched evaluation is the point's own
        rng = np.random.default_rng(3)
        us, vs = rng.uniform(0.2, 1.5, 37), rng.uniform(-1.0, 1.0, 37)
        whole = self.mixed(*var_pair(us, vs, k))
        assert whole.batch == (37,)
        for p in range(37):
            alone = self.mixed(*var_pair(float(us[p]), float(vs[p]), k))
            assert whole.coeffs[:, p].tobytes() == alone.coeffs.tobytes()
            assert whole[[p]] == jt.Jet(k, alone.coeffs[:, None])

    def test_equality_and_hash(self):
        a = poly_jet(0.3, -0.4)
        b = poly_jet(0.3, -0.4)
        assert a == b and hash(a) == hash(b)
        assert a != poly_jet(0.3, -0.5)
        assert a != a.truncated(2)
        assert a != a.value()

    def test_values_are_numpy(self):
        u, _ = var_pair(0.3, -0.4)
        assert isinstance(u.value(), np.floating)
        assert isinstance(u.partial(1, 0), np.floating)
        ub, _ = var_pair(np.array([0.1, 0.2, 0.3]), np.zeros(3))
        assert ub.value().shape == (3,)
        assert ub.partial(1, 0).tolist() == [1.0, 1.0, 1.0]

    def test_batches_must_match(self):
        u, _ = var_pair(0.3, -0.4)
        ub, _ = var_pair(np.array([0.1, 0.2]), np.zeros(2))
        with pytest.raises(ValueError):
            u * ub
