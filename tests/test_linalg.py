"""Indefinite inner products, wedges, and the Hodge dual on bivectors.

The ambient signature is (-,+,+,+) with the first coordinate time-like;
bivector components are ordered (12, 13, 14, 23, 24, 34) over 1-based
axis labels.  A vector or bivector is a float array of its components.
"""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minksurf import linalg as la
from minksurf.geometry import CAUSAL_TOL

from conftest import BATCH_SHAPES, special_values

BASIS = tuple(np.eye(4))


def vec(*components: float) -> np.ndarray:
    return np.array(components, dtype=float)


def test_public_names_are_functions():
    # a vector is its component stack, so no class stands for one
    names = set(la.__all__) - {"DegeneratePlane"}
    assert len(names) == len(la.__all__) - 1
    assert all(inspect.isfunction(getattr(la, n)) for n in names)


coords = st.floats(min_value=-5.0, max_value=5.0,
                   allow_nan=False, allow_infinity=False)
vectors = st.builds(vec, coords, coords, coords, coords)
bivectors = st.builds(vec, *[coords] * 6)


class TestMinkowskiInner:
    def test_signature(self):
        signs = [la.minkowski_inner(e, e) for e in BASIS]
        assert signs == [-1.0, 1.0, 1.0, 1.0]

    def test_off_diagonal_vanishes(self):
        for i in range(4):
            for j in range(i + 1, 4):
                assert la.minkowski_inner(BASIS[i], BASIS[j]) == 0.0

    @given(a=vectors, b=vectors)
    def test_symmetry(self, a, b):
        assert la.minkowski_inner(a, b) == pytest.approx(
            la.minkowski_inner(b, a), rel=1e-14, abs=1e-14)

    def test_null_vector(self):
        n = vec(1.0, 1.0, 0.0, 0.0)
        assert la.minkowski_inner(n, n) == 0.0


class TestCausalCharacter:
    @pytest.mark.parametrize("v,want", [
        (vec(0.0, 1.0, 0.0, 0.0), "SPACELIKE"),
        (vec(1.0, 0.0, 0.0, 0.0), "TIMELIKE"),
        (vec(1.0, 1.0, 0.0, 0.0), "LIGHTLIKE"),
        (vec(0.0, 0.0, 0.0, 0.0), "ZERO"),
    ])
    def test_archetypes(self, v, want):
        got = la.causal_character(v, CAUSAL_TOL)
        assert isinstance(got, str) and got == want

    def test_batch_is_an_array_of_names(self):
        v = np.transpose([vec(0.0, 1.0, 0.0, 0.0), vec(1.0, 0.0, 0.0, 0.0),
                          vec(1.0, 1.0, 0.0, 0.0), vec(0.0, 0.0, 0.0, 0.0)])
        got = la.causal_character(v, CAUSAL_TOL)
        assert got.dtype == object
        assert got.tolist() == ["SPACELIKE", "TIMELIKE", "LIGHTLIKE", "ZERO"]

    def test_tolerance_scales_with_vector(self):
        # a huge vector whose inner product cancels to roundoff is null,
        # not space-like, even though the raw residual is far above tol
        big = 1e8
        v = vec(big, big, 0.0, 0.0)
        assert la.causal_character(v, CAUSAL_TOL) == "LIGHTLIKE"

    def test_small_but_genuinely_spacelike(self):
        v = vec(0.0, 1e-3, 0.0, 0.0)
        assert la.causal_character(v, CAUSAL_TOL) == "SPACELIKE"

    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    @pytest.mark.parametrize("tol", [CAUSAL_TOL, 1e-8, 0.0])
    def test_equals_select_reference(self, batch, tol):
        # the first class whose condition holds, written with np.select
        v = special_values((4,) + batch, seed=len(batch))
        with np.errstate(all="ignore"):
            e2, q = la.euclid_sq(v), la.minkowski_inner(v, v)
            which = np.select([np.sqrt(e2) <= tol, abs(q) <= tol * (1.0 + e2),
                               q > 0], [0, 1, 2], 3)
            got = la.causal_character(v, tol)
        want = np.array(["ZERO", "LIGHTLIKE", "SPACELIKE", "TIMELIKE"],
                        dtype=object)[which]
        if batch:
            assert got.dtype == object and got.shape == batch
            assert got.tolist() == want.tolist()
        else:
            assert isinstance(got, str) and got == want


class TestWedge:
    def test_basis_components(self):
        k = 0
        for i in range(4):
            for j in range(i + 1, 4):
                w = la.wedge(BASIS[i], BASIS[j])
                want = [0.0] * 6
                want[k] = 1.0
                assert tuple(w) == tuple(want)
                k += 1

    @given(a=vectors, b=vectors)
    def test_antisymmetry(self, a, b):
        ab, ba = la.wedge(a, b), la.wedge(b, a)
        for k in range(6):
            assert ab[k] == pytest.approx(-ba[k], abs=1e-12)

    @given(a=vectors)
    @settings(max_examples=40)
    def test_self_wedge_vanishes(self, a):
        assert la.euclid_norm(la.wedge(a, a)) == pytest.approx(0.0, abs=1e-12)

    @given(a=vectors, b=vectors)
    def test_plucker_identity(self, a, b):
        w = la.wedge(a, b)
        p12, p13, p14, p23, p24, p34 = w
        res = p12 * p34 - p13 * p24 + p14 * p23
        scale = 1.0 + la.euclid_norm(w) ** 2
        assert abs(res) / scale < 1e-12

    @given(a=vectors, b=vectors, c=vectors, d=vectors)
    def test_inner_is_gram_determinant(self, a, b, c, d):
        # <a^b, c^d> = <a,c><b,d> - <a,d><b,c> pins down both the wedge
        # components and the six bivector metric signs at once
        lhs = la.bivector_inner(la.wedge(a, b), la.wedge(c, d))
        rhs = (la.minkowski_inner(a, c) * la.minkowski_inner(b, d)
               - la.minkowski_inner(a, d) * la.minkowski_inner(b, c))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-9)


class TestBivectorInner:
    def test_metric_signs(self):
        signs = []
        for b in np.eye(6):
            signs.append(la.bivector_inner(b, b))
        assert signs == [-1.0, -1.0, -1.0, 1.0, 1.0, 1.0]

    def test_euclid_norm(self):
        b = vec(3.0, 0.0, 0.0, 4.0, 0.0, 0.0)
        assert la.euclid_norm(b) == pytest.approx(5.0)


class TestHodgeDual:
    def test_component_table(self):
        b = vec(*range(1, 7))
        s = la.hodge_dual(b)
        assert tuple(s) == (6.0, -5.0, 4.0, -3.0, 2.0, -1.0)

    @given(b=bivectors)
    def test_involution_with_minus_sign(self, b):
        ss = la.hodge_dual(la.hodge_dual(b))
        for k in range(6):
            assert ss[k] == pytest.approx(-b[k], abs=1e-12)

    @given(a=bivectors, b=bivectors)
    def test_antiisometry(self, a, b):
        assert la.bivector_inner(la.hodge_dual(a), la.hodge_dual(b)) == pytest.approx(
            -la.bivector_inner(a, b), rel=1e-12, abs=1e-10)


class TestContract:
    @given(x=vectors, a=vectors, c=vectors)
    def test_defining_identity(self, x, a, c):
        # iota_x(a ^ c) = <x, a> c - <x, c> a
        got = la.contract(x, la.wedge(a, c))
        want = la.minkowski_inner(x, a) * c - la.minkowski_inner(x, c) * a
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-10, abs=1e-9)


def orthonormal_pair(t1: np.ndarray, t2: np.ndarray):
    """Gram-Schmidt on a space-like pair: (e1, e2) with e1 along t1."""
    e1 = 1.0 / math.sqrt(la.minkowski_inner(t1, t1)) * t1
    r = t2 - la.minkowski_inner(t2, e1) * e1
    return e1, 1.0 / math.sqrt(la.minkowski_inner(r, r)) * r


def unit_dual_normal(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """star(t1 ^ t2) over the square root of the tangent Gram
    determinant, apart from the frame construction."""
    det = (la.minkowski_inner(t1, t1) * la.minkowski_inner(t2, t2)
           - la.minkowski_inner(t1, t2) ** 2)
    return 1.0 / math.sqrt(det) * la.hodge_dual(la.wedge(t1, t2))


class TestDualUnitNormal:
    def test_coordinate_plane(self):
        _, _, nu = la.normal_frame(BASIS[1], BASIS[2])
        assert tuple(nu) == (0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
        assert la.bivector_inner(nu, nu) == pytest.approx(-1.0)

    def test_unit_timelike_in_bivector_metric(self):
        a = vec(0.3, 1.0, 0.2, -0.1)
        b = vec(-0.1, 0.4, 1.3, 0.5)
        _, _, nu = la.normal_frame(*orthonormal_pair(a, b))
        assert la.bivector_inner(nu, nu) == pytest.approx(-1.0, rel=1e-12)


def boost(v: np.ndarray, phi: float) -> np.ndarray:
    """Lorentz boost of rapidity phi along the first space axis."""
    ch, sh = math.cosh(phi), math.sinh(phi)
    return vec(ch * v[0] + sh * v[1], sh * v[0] + ch * v[1], v[2], v[3])


spatial = st.tuples(coords, coords, coords)


@st.composite
def boosted_planes(draw):
    """A space-like plane: two spatial vectors, boosted to rapidity <= 4."""
    a, b = draw(spatial), draw(spatial)
    cross = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
             a[0] * b[1] - a[1] * b[0])
    assume(sum(c * c for c in cross) >= 0.01)
    phi = draw(st.floats(min_value=-4.0, max_value=4.0))
    return boost(vec(0.0, *a), phi), boost(vec(0.0, *b), phi)


class TestNormalFrame:
    @pytest.mark.parametrize("t1,t2", [
        (BASIS[1], BASIS[2]),
        (vec(0.1, 1.0, 0.0, 0.2), vec(0.0, 0.3, 1.0, -0.1)),
        (vec(0.5, 2.0, 0.1, 0.0), vec(0.2, 0.0, 1.5, 0.8)),
    ])
    def test_orthonormal_and_normal(self, t1, t2):
        e3, e4, _ = la.normal_frame(*orthonormal_pair(t1, t2))
        assert la.minkowski_inner(e3, e3) == pytest.approx(1.0, rel=1e-12)
        assert la.minkowski_inner(e4, e4) == pytest.approx(-1.0, rel=1e-12)
        assert la.minkowski_inner(e3, e4) == pytest.approx(0.0, abs=1e-12)
        for t in (t1, t2):
            assert la.minkowski_inner(e3, t) == pytest.approx(0.0, abs=1e-10)
            assert la.minkowski_inner(e4, t) == pytest.approx(0.0, abs=1e-10)

    def test_sign_relates_wedge_to_dual(self):
        # the orientation is fixed by construction: e3 ^ e4 = +nu, never -nu
        t1 = vec(0.1, 1.0, 0.0, 0.2)
        t2 = vec(0.0, 0.3, 1.0, -0.1)
        e3, e4, _ = la.normal_frame(*orthonormal_pair(t1, t2))
        nu = unit_dual_normal(t1, t2)
        w = la.wedge(e3, e4)
        for k in range(6):
            assert w[k] == pytest.approx(nu[k], abs=1e-12)

    @given(plane=boosted_planes())
    @settings(max_examples=200, deadline=None)
    def test_boosted_planes(self, plane):
        # a boost up to rapidity 4 inflates the Euclidean size of the
        # frame; the Gram defect of (e1, e2, e3, e4) is measured against it
        t1, t2 = plane
        e1, e2 = orthonormal_pair(t1, t2)
        e3, e4, _ = la.normal_frame(e1, e2)
        frame = (e1, e2, e3, e4)
        target = (1.0, 1.0, 1.0, -1.0)
        defect = max(abs(la.minkowski_inner(a, b) - (target[i] if i == j else 0.0))
                     for i, a in enumerate(frame) for j, b in enumerate(frame))
        scale = max(la.euclid_sq(e) for e in frame)
        assert defect / scale < 1e-13
        w = la.wedge(e3, e4)
        nu = la.hodge_dual(la.wedge(e1, e2))
        assert la.euclid_norm(w - nu) / scale < 1e-13
        # <nu, nu> = -1 makes |nu|_E >= 1, so -nu would sit at distance >= 2
        opposite = w + unit_dual_normal(t1, t2)
        assert la.euclid_norm(opposite) > 1.0

    def test_deterministic(self):
        t1 = vec(0.5, 2.0, 0.1, 0.0)
        t2 = vec(0.2, 0.0, 1.5, 0.8)
        pair = orthonormal_pair(t1, t2)
        for a, b in zip(la.normal_frame(*pair), la.normal_frame(*pair)):
            assert np.array_equal(a, b)


class TestEuclid:
    @given(a=vectors)
    @settings(max_examples=30)
    def test_euclid_sq_nonnegative(self, a):
        s = la.euclid_sq(a)
        assert s >= 0.0
        assert s == pytest.approx(a[0] ** 2 + a[1] ** 2 + a[2] ** 2
                                  + a[3] ** 2)

    def test_norm_of_unit(self):
        assert math.isclose(la.euclid_sq(BASIS[0]), 1.0)
