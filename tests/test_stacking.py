"""Stacked components against per-component arithmetic.

A vector or bivector is one stack with a leading component axis: a jet
whose batch has that axis, or a float array.  Each linalg operation on
it is one product.  These tests write every operation out component by
component on scalar jets (and on their float values), as the formulas
read, and require the stacked result to carry the same bytes (so a -0.0
for a 0.0 counts as a difference).  Frame
derivatives, which the geometry takes along both directions at once, are
written out one direction at a time in the same way.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minksurf import gaussmap as gm
from minksurf import geometry as ge
from minksurf import jets as jt
from minksurf import linalg as la
from minksurf import surfaces as sf

from conftest import CATALOG_CASES, WILD_TEXT, build

ORDERS = st.sampled_from([3, 4])
BATCHES = st.sampled_from([(), (16,), (256,)])
SEEDS = st.integers(0, 2**32 - 1)


def random_jets(rng, order: int, batch: tuple, n: int) -> list[jt.Jet]:
    """n scalar jets with normal coefficients, about a tenth of them
    replaced by +0.0 or -0.0."""
    coeffs = rng.standard_normal((n, jt._size(order)) + batch)
    zeros = rng.random(coeffs.shape) < 0.1
    coeffs[zeros] = np.where(rng.random(coeffs.shape) < 0.5, 0.0, -0.0)[zeros]
    return [jt.Jet(order, c) for c in coeffs]


def same_bytes(stacked, parts: list) -> bool:
    """Whether component n of the stack (a jet or a float array) has the
    bytes of parts[n], for every n."""
    if not isinstance(stacked, jt.Jet):
        return (np.shape(stacked)[:1] == (len(parts),)
                and all(np.asarray(stacked[n]).tobytes()
                        == np.asarray(p).tobytes()
                        for n, p in enumerate(parts)))
    return (stacked.batch[:1] == (len(parts),)
            and all(stacked.order == p.order
                    and stacked.coeffs[:, n].tobytes() == p.coeffs.tobytes()
                    for n, p in enumerate(parts)))


def kinds(parts: list[jt.Jet]):
    """The scalar jets, then their float values, each with their stack."""
    yield parts, jt.stack(parts)
    values = [p.value() for p in parts]
    yield values, np.stack(values)


# -- the component formulas ---------------------------------------------------

def inner(a, b):
    return -a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def wedge(a, b):
    return [a[0] * b[1] - a[1] * b[0], a[0] * b[2] - a[2] * b[0],
            a[0] * b[3] - a[3] * b[0], a[1] * b[2] - a[2] * b[1],
            a[1] * b[3] - a[3] * b[1], a[2] * b[3] - a[3] * b[2]]


def contract(x, p):
    return [-(x[1] * p[0] + x[2] * p[1] + x[3] * p[2]),
            -(x[0] * p[0] + x[2] * p[3] + x[3] * p[4]),
            -(x[0] * p[1]) + x[1] * p[3] - x[3] * p[5],
            -(x[0] * p[2]) + x[1] * p[4] + x[2] * p[5]]


def hodge(p):
    return [p[5], -p[4], p[3], -p[2], p[1], -p[0]]


def normal_frame(e1, e2, sqrt=jt.sqrt):
    a, b = e1[0], e2[0]
    t_n = [a * x + b * y for x, y in zip(e1, e2)]
    t_n[0] = t_n[0] + 1.0
    inv = 1.0 / sqrt(1.0 + a * a + b * b)
    e4 = [inv * c for c in t_n]
    nu = hodge(wedge(e1, e2))
    return contract(e4, nu), e4, nu


def laplacian(pg: ge.PointGeometry, f: jt.Jet) -> jt.Jet:
    E, F, G = pg.metric_jets
    inv_w = jt.reciprocal(jt.sqrt(pg.metric_det_jet))
    P, Q, R = G * inv_w, -(F * inv_w), E * inv_w
    fu, fv = f.deriv_u(), f.deriv_v()
    return -(inv_w * ((P * fu + Q * fv).deriv_u() + (Q * fu + R * fv).deriv_v()))


# -- stacked against component by component -------------------------------------

@settings(max_examples=25, deadline=None)
@given(ORDERS, BATCHES, SEEDS)
def test_minkowski_inner(order, batch, seed):
    parts = random_jets(np.random.default_rng(seed), order, batch, 8)
    for p, stack in kinds(parts):
        got = la.minkowski_inner(stack[:4], stack[4:])
        assert same_bytes(got[None], [inner(p[:4], p[4:])])


@settings(max_examples=25, deadline=None)
@given(ORDERS, BATCHES, SEEDS)
def test_wedge(order, batch, seed):
    parts = random_jets(np.random.default_rng(seed), order, batch, 8)
    for p, stack in kinds(parts):
        assert same_bytes(la.wedge(stack[:4], stack[4:]), wedge(p[:4], p[4:]))


@settings(max_examples=25, deadline=None)
@given(ORDERS, BATCHES, SEEDS)
def test_contract(order, batch, seed):
    parts = random_jets(np.random.default_rng(seed), order, batch, 10)
    for p, stack in kinds(parts):
        got = la.contract(stack[:4], stack[4:])
        assert same_bytes(got, contract(p[:4], p[4:]))


@settings(max_examples=25, deadline=None)
@given(ORDERS, BATCHES, SEEDS)
def test_scaled(order, batch, seed):
    # a stack scaled by a per-point factor s is s[None] * stack
    parts = random_jets(np.random.default_rng(seed), order, batch, 5)
    for p, stack in kinds(parts):
        s, v = p[0], p[1:]
        assert same_bytes(s[None] * stack[1:], [s * c for c in v])


@settings(max_examples=25, deadline=None)
@given(ORDERS, BATCHES, SEEDS)
def test_hodge_dual(order, batch, seed):
    parts = random_jets(np.random.default_rng(seed), order, batch, 6)
    for p, stack in kinds(parts):
        assert same_bytes(la.hodge_dual(stack), hodge(p))


@settings(max_examples=25, deadline=None)
@given(ORDERS, BATCHES, SEEDS)
def test_normal_frame(order, batch, seed):
    parts = random_jets(np.random.default_rng(seed), order, batch, 8)
    for (p, stack), sqrt in zip(kinds(parts), (jt.sqrt, np.sqrt)):
        got = la.normal_frame(stack[:4], stack[4:], sqrt)
        for g, want in zip(got, normal_frame(p[:4], p[4:], sqrt)):
            assert same_bytes(g, want)


@settings(max_examples=25, deadline=None)
@given(ORDERS, BATCHES, SEEDS, st.sampled_from([4, 6]))
def test_laplacian(order, batch, seed, n):
    rng = np.random.default_rng(seed)
    # a space-like immersion: (0, u, v, 0) plus a small random part
    x = random_jets(rng, order, batch, 4)
    us, vs = rng.uniform(-1.0, 1.0, (2,) + batch)
    u, v = jt.Jet.variable("u", us, order), jt.Jet.variable("v", vs, order)
    xjets = [c * 0.1 + base for c, base in zip(x, (0.0, u, v, 0.0))]
    pg = ge.PointGeometry(xjets, base=(us, vs))
    f = random_jets(rng, order, batch, n)
    assert same_bytes(pg.laplacian(jt.stack(f)), [laplacian(pg, c) for c in f])


# -- the product under the stacking ---------------------------------------------

@pytest.mark.parametrize("order", [3, 4])
def test_product_chunking_changes_no_bit(order, monkeypatch):
    # one term per run against one run for all terms
    a, b = random_jets(np.random.default_rng(order), order, (12, 256), 2)
    whole = a * b
    monkeypatch.setattr(jt, "_TERM_BYTES", 1)
    assert (a * b).coeffs.tobytes() == whole.coeffs.tobytes()
    monkeypatch.setattr(jt, "_TERM_BYTES", 1 << 40)
    assert (a * b).coeffs.tobytes() == whole.coeffs.tobytes()


def test_spread_scalar_multiplies_each_component():
    s, *v = random_jets(np.random.default_rng(5), 3, (16,), 5)
    assert same_bytes(s[None] * jt.stack(v), [s * c for c in v])
    with pytest.raises(ValueError):
        s * jt.stack(v)  # no axis was added: the batches differ


# -- geometry stacks against the component formulas -------------------------------

def geometries():
    """Order-3 and order-4 geometry of every catalog surface and the wild
    one, on a 4x4 grid batch and at one point."""
    specs = [build(name, params) for name, params in CATALOG_CASES]
    specs.append(sf.parse_surface(WILD_TEXT))
    for spec in specs:
        us, vs = (np.array(c) for c in zip(*sf.cell_centers(spec.domain, 4, 4)))
        for order in (3, 4):
            for u, v in ((us, vs), (us[5], vs[5])):
                xj = sf.evaluate_immersion(spec, u, v, order)
                yield ge.PointGeometry(xj, base=(u, v))


GEOMETRIES = list(geometries())


def jet_bytes(jets) -> list[bytes]:
    return [j.coeffs.tobytes() for j in jets]


def value_bytes(x) -> bytes:
    return np.asarray(x).tobytes()


# The index of h^beta_ij in the (11, 12, 22) axis of the _h stack.
IJ = {(1, 1): 0, (1, 2): 1, (2, 1): 1, (2, 2): 2}


def h_jet(pg: ge.PointGeometry, beta: int, i: int, j: int) -> jt.Jet:
    return pg._h[beta - 3, IJ[i, j]]


def directional(pg: ge.PointGeometry, f: jt.Jet, i: int):
    """e_i(f) = a_i f_u + b_i f_v, one direction at a time."""
    a, b = pg.frame.a[i - 1].value(), pg.frame.b[i - 1].value()
    return a * f.partial(1, 0) + b * f.partial(0, 1)


def frame_loop(pg: ge.PointGeometry):
    """Metric, frame and second fundamental form, component by component."""
    xu = [c.deriv_u() for c in pg.xjets]
    xv = [c.deriv_v() for c in pg.xjets]
    E, F, G = inner(xu, xu), inner(xu, xv), inner(xv, xv)
    det = E * G - F * F
    inv_E = jt.reciprocal(E)
    a1 = jt.sqrt(inv_E)
    inv_mu = jt.reciprocal(jt.sqrt(det * inv_E))
    a2, b2 = -(F * inv_E) * inv_mu, inv_mu
    b1 = jt.Jet.constant(np.zeros(pg.batch), a1.order)
    e1 = [a1 * c for c in xu]
    e2 = [a2 * x + b2 * y for x, y in zip(xu, xv)]
    e3, e4, nu = normal_frame(e1, e2)
    xuu = [c.deriv_u() for c in xu]
    xuv = [c.deriv_v() for c in xu]
    xvv = [c.deriv_v() for c in xv]
    a, b = (a1, a2), (b1, b2)
    h = {}
    for beta, e in ((3, e3), (4, e4)):
        puu, puv, pvv = inner(xuu, e), inner(xuv, e), inner(xvv, e)
        for i, j in ((1, 1), (1, 2), (2, 2)):
            ai, bi, aj, bj = a[i - 1], b[i - 1], a[j - 1], b[j - 1]
            h[beta, i, j] = h[beta, j, i] = (
                ai * aj * puu + (ai * bj + bi * aj) * puv + bi * bj * pvv)
    tr3, tr4 = h[3, 1, 1] + h[3, 2, 2], h[4, 1, 1] + h[4, 2, 2]
    half3, half4 = tr3 * 0.5, tr4 * 0.5
    H = [half3 * x - half4 * y for x, y in zip(e3, e4)]
    s3, s4 = (h[beta, 1, 1] ** 2 + h[beta, 1, 2] ** 2 * 2.0 + h[beta, 2, 2] ** 2
              for beta in (3, 4))
    return dict(metric=[E, F, G], det=[det], e=e1 + e2 + e3 + e4, nu=nu,
                h=[h[key] for key in sorted(h)], H=H, h_sq=[s3 + -s4])


@pytest.mark.parametrize("pg", GEOMETRIES)
def test_geometry_stacks(pg):
    want = frame_loop(pg)
    got = dict(metric=pg.metric_jets, det=[pg.metric_det_jet],
               e=[e[k] for e in pg.frame.e for k in range(4)],
               nu=[pg.nu_jets[k] for k in range(6)],
               h=[h_jet(pg, *key) for key in sorted(
                   (beta, *ij) for beta in (3, 4) for ij in IJ)],
               H=[pg.H_jets[k] for k in range(4)], h_sq=[pg.h_sq_jet])
    for name in want:
        assert jet_bytes(got[name]) == jet_bytes(want[name]), name


def codazzi_loop(pg: ge.PointGeometry, shift: float):
    def h(beta, j, k):
        return h_jet(pg, beta, j, k)

    def cov(i, j, k, beta):
        # h^beta_{jk,i}
        flat = directional(pg, h(beta, j, k), i)
        w12 = pg.omega12[i - 1] + shift
        rot = h(7 - beta, j, k).value() * pg.omega34[i - 1]

        def w_tan(p, q):
            return 0.0 if p == q else (w12 if (p, q) == (1, 2) else -w12)

        levi = sum(w_tan(j, ell) * h(beta, ell, k).value()
                   + w_tan(k, ell) * h(beta, j, ell).value() for ell in (1, 2))
        return flat + rot - levi

    worst = 0.0
    for beta in (3, 4):
        for i in (1, 2):
            for j in (1, 2):
                for k in (1, 2):
                    worst = np.maximum(
                        worst, abs(cov(k, i, j, beta) - cov(i, j, k, beta)))
    return worst


def frame_residual_loop(pg: ge.PointGeometry):
    target = (1.0, 1.0, 1.0, -1.0)
    vals, worst = pg.frame_values, 0.0
    for i in range(4):
        for j in range(i, 4):
            got = la.minkowski_inner(vals[i], vals[j])
            worst = np.maximum(worst, abs(got - (target[i] if i == j else 0.0)))
    return worst


@pytest.mark.parametrize("pg", GEOMETRIES)
def test_residual_arrays(pg):
    for shift in (0.0, 0.1):
        assert (np.asarray(pg.codazzi_residual(shift)).tobytes()
                == np.asarray(codazzi_loop(pg, shift)).tobytes())
    assert (np.asarray(pg.residual_frame).tobytes()
            == np.asarray(frame_residual_loop(pg)).tobytes())


# -- frame derivatives against one direction at a time ----------------------------

def omega_loop(pg: ge.PointGeometry, A: int, B: int, i: int):
    """omega_AB(e_i) = <flat derivative of e_A along e_i, e_B>."""
    w = directional(pg, pg.frame.e[A - 1], i)
    return la.minkowski_inner(w, pg.frame_values[B - 1])


def parallel_H_loop(pg: ge.PointGeometry):
    e1v, e2v = pg.frame_values[0], pg.frame_values[1]
    total = 0.0
    for i in (1, 2):
        w = directional(pg, pg.H_jets, i)
        tang1 = la.minkowski_inner(w, e1v)
        tang2 = la.minkowski_inner(w, e2v)
        normal = w - tang1 * e1v - tang2 * e2v
        total += la.euclid_norm(normal)
    return total


def lemma42_loop(pg: ge.PointGeometry):
    f_jet = pg.h_sq_jet
    f0 = f_jet.value()
    e1f, e2f = directional(pg, f_jet, 1), directional(pg, f_jet, 2)
    w1, w2 = omega_loop(pg, 1, 2, 1), omega_loop(pg, 1, 2, 2)
    best = math.inf
    for eps in (-1.0, 1.0):
        r = np.maximum(abs(e1f + 4.0 * eps * w2 * f0),
                       abs(e2f - 4.0 * eps * w1 * f0))
        best = np.minimum(best, r)
    return best


def label_masks_loop(pg: ge.PointGeometry):
    """The label predicates with h(e_i, e_j) one vector per index pair."""
    tau = pg.tol.residual
    H, norm_H = pg.H, pg.H_norm_euclid
    e3, e4 = pg.frame_values[2], pg.frame_values[3]
    hv = {(i, j): (h_jet(pg, 3, i, j).value() * e3
                   + -h_jet(pg, 4, i, j).value() * e4)
          for i in (1, 2) for j in (1, 2)}
    p = {key: la.minkowski_inner(vec, H) for key, vec in hv.items()}
    scale = tau * (1.0 + np.maximum.reduce([abs(val) for val in p.values()]))
    hn = tau * (1.0 + norm_H)
    x_causal = la.causal_character(pg.x_values, ge.CAUSAL_TOL)
    return {
        "MAXIMAL": norm_H <= tau,
        "MARGINALLY-TRAPPED": pg.H_causal == la.CausalClass.LIGHTLIKE,
        "FLAT": abs(pg.K_gauss) <= tau,
        "FLAT-NORMAL-BUNDLE": abs(pg.RD) <= tau,
        "PARALLEL-H": pg.residual_parallel_H <= tau,
        "PSEUDO-UMBILICAL": ((abs(p[(1, 2)]) <= scale)
                             & (abs(p[(1, 1)] - p[(2, 2)]) <= scale)),
        "TOTALLY-UMBILICAL": np.logical_and.reduce([
            la.euclid_norm(hv[(i, j)] - H if i == j else hv[(i, j)]) <= hn
            for i in (1, 2) for j in (1, 2)]),
        "IN-LIGHTCONE": ((x_causal == la.CausalClass.ZERO)
                         | (x_causal == la.CausalClass.LIGHTLIKE)),
        "IN-S31": x_causal == la.CausalClass.SPACELIKE,
        "IN-H3": ((x_causal == la.CausalClass.TIMELIKE)
                  & (pg.x_values[0] > 0)),
    }


@pytest.mark.parametrize("pg", GEOMETRIES)
def test_frame_derivatives(pg):
    for f in (pg.h_sq_jet, pg.trace_jets, pg.frame.e[0], pg._h):
        got = pg.along(f)
        assert [value_bytes(x) for x in got] == [
            value_bytes(directional(pg, f, i)) for i in (1, 2)]
    for name, (A, B) in (("omega12", (1, 2)), ("omega34", (3, 4))):
        assert [value_bytes(x) for x in getattr(pg, name)] == [
            value_bytes(omega_loop(pg, A, B, i)) for i in (1, 2)], name
    assert (value_bytes(pg.residual_parallel_H)
            == value_bytes(parallel_H_loop(pg)))
    d = gm.laplacian_gauss_formula(pg)
    for beta, grad in enumerate((d.grad_trA3, d.grad_trA4)):
        assert [value_bytes(x) for x in grad] == [
            value_bytes(directional(pg, pg.trace_jets, i)[beta])
            for i in (1, 2)]
    assert value_bytes(gm._lemma42(pg)[1]) == value_bytes(lemma42_loop(pg))


@pytest.mark.parametrize("pg", GEOMETRIES)
def test_label_masks(pg):
    got, want = pg.label_masks(), label_masks_loop(pg)
    assert list(got) == list(want)
    for name in want:
        assert value_bytes(got[name]) == value_bytes(want[name]), name
