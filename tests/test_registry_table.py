"""Every registry statement at both truth values, and no side swap that
the table lets through.

A verdict is consistent when its two sides agree, so a statement seen
only with both sides true cannot tell a right side from a wrong one.
The table pins, for each (surface, theorem) at 7x7, whether the premise
is met and whether each side passes: the catalog at its defaults (with
a harmonic ``graph`` height), and six surface files that give the
maximal, quadric and light-like statements their false rows.  The
mutation test then swaps each side for every other side function of the
registry, keeping the side's text, and asks that the table or the
consistency of some row catch it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from minksurf import gaussmap as gm
from minksurf import surfaces as sf

DATA = Path(__file__).parent / "data"
FILES = ("helicoid", "weierstrass", "h3_sphere", "torus", "h3_tube",
         "cubic_graph")
GRAPH_PHI = "u^2-v^2+sin(u)*exp(v)"

# premise not met (-), else side A and side B: T passes, F fails
TABLE_TEXT = """
            T3.4  T3.5  T3.7  T3.9  T3.10 T3.11 T4.1  T4.3  T4.4  T4.6  T4.8
example52   -     FF    FF    FF    -     FF    -     -     TT    FF    FF
graph       TT    -     TT    -     -     TT    TT    TT    -     -     -
h3-flat     -     TT    TT    -     TT    TT    -     -     TT    TT    TT
plane       TT    -     TT    -     -     TT    TT    TT    -     -     -
product     -     FF    FF    FF    -     FF    -     -     TT    -     TT
s31-flat    -     TT    TT    TT    -     TT    -     -     TT    TT    TT
type-i      -     TT    TT    -     -     TT    -     -     TT    TT    TT
type-ii     -     TT    TT    -     -     TT    -     -     TT    TT    TT
helicoid    FF    -     FF    -     -     FF    TT    FF    -     -     -
weierstrass FF    -     FF    -     -     FF    FF    FF    -     -     -
h3_sphere   -     FF    FF    -     FF    FF    -     -     TT    -     TT
torus       -     FF    FF    -     -     FF    -     -     FF    -     FF
h3_tube     -     FF    FF    -     FF    FF    -     -     TT    -     TT
cubic_graph -     FF    FF    -     -     FF    -     -     FF    FF    FF
"""


def _table() -> dict[tuple[str, str], str]:
    header, *lines = TABLE_TEXT.strip().splitlines()
    tids = header.split()
    return {(tid, name): cell for name, *cells in map(str.split, lines)
            for tid, cell in zip(tids, cells, strict=True)}


TABLE = _table()
SURFACES = tuple(dict.fromkeys(name for _, name in TABLE))


def _spec(name: str) -> sf.SurfaceSpec:
    if name in FILES:
        return sf.parse_surface((DATA / f"{name}.surf").read_text(
            encoding="utf-8"))
    return sf.catalog_lookup(name, {"phi": GRAPH_PHI} if name == "graph"
                             else None)


@pytest.fixture(scope="module")
def records() -> dict[str, gm.Records]:
    return {name: gm.evaluate_grid(_spec(name), (7, 7)) for name in SURFACES}


def _cell(verdict: gm.TheoremVerdict) -> str:
    if not verdict.premise_met:
        return "-"
    return "".join("T" if side.passes else "F"
                   for side in (verdict.side_a, verdict.side_b))


def test_table_covers_the_registry():
    assert {tid for tid, _ in TABLE} == set(gm.theorem_ids())
    assert set(SURFACES) == set(sf.catalog_names()) | set(FILES)


@pytest.mark.parametrize("tid", gm.theorem_ids())
def test_table(records, tid):
    got = {}
    for name, recs in records.items():
        assert len(recs.live) == len(recs), name
        got[name] = _cell(gm.theorem_verdict_from_records(tid, recs, name))
    assert got == {name: TABLE[tid, name] for name in SURFACES}


@pytest.mark.parametrize("tid", gm.theorem_ids())
def test_every_statement_at_both_truth_values(tid):
    cells = {TABLE[tid, name] for name in SURFACES}
    assert {"TT", "FF"} <= cells <= {"TT", "FF", "-"}


# -- single-side swaps ----------------------------------------------------

def _sides() -> dict[str, object]:
    """Each distinct side function of the registry, named by the first
    (theorem, side) in id order that holds it: T3.11 shares T3.7's
    entry, and ``_check_harmonic`` is one function on seven sides."""
    named = {}
    for tid in gm.theorem_ids():
        for side in ("a", "b"):
            fn = getattr(gm.THEOREMS[tid], f"side_{side}")
            if all(fn is not other for other in named.values()):
                named[f"{tid}.{side}"] = fn
    return named


SIDES = _sides()

# The side functions by what they test.  The flat, light-like and
# parallel conjunction is written out three times; the six types are
# flat with flat normal bundle, and maximal or light-like parallel.
HARMONIC = "T3.10.b"
FLAT_LIGHTLIKE_PARALLEL = ("T3.10.a", "T3.5.b", "T3.9.a")
SIX_TYPES = "T3.11.b"
FLAT_FNB = "T3.4.b"
FIRST_KIND, FNB = "T4.1.a", "T4.1.b"
GLOBAL_FIRST_KIND = "T4.3.a"
PARALLEL = "T4.4.b"
PARALLEL_K_CONSTANT = "T4.8.b"

# Per theorem, the side functions that the registry's own statements make
# one predicate wherever its premise holds.  A swap inside a group is
# caught by no surface on which the paper holds: the table reads the
# same, as it must.
AGREE = {
    # maximal: harmonic iff flat with flat normal bundle (T3.4) iff
    # global first kind (T4.3); the six types reduce to flat with flat
    # normal bundle
    "T3.4": (HARMONIC, FLAT_FNB, SIX_TYPES, GLOBAL_FIRST_KIND),
    "T4.3": (HARMONIC, FLAT_FNB, SIX_TYPES, GLOBAL_FIRST_KIND),
    # maximal: pointwise first kind iff flat normal bundle (T4.1)
    "T4.1": (FIRST_KIND, FNB),
    # non-maximal, and so in either quadric: harmonic iff flat with
    # light-like parallel H (T3.5, T3.9, T3.10) iff the six types (T3.7)
    "T3.5": (HARMONIC, *FLAT_LIGHTLIKE_PARALLEL, SIX_TYPES),
    "T3.9": (HARMONIC, *FLAT_LIGHTLIKE_PARALLEL, SIX_TYPES),
    "T3.10": (HARMONIC, *FLAT_LIGHTLIKE_PARALLEL, SIX_TYPES),
    # any surface: harmonic iff the six types (T3.7)
    "T3.7": (HARMONIC, SIX_TYPES),
    "T3.11": (HARMONIC, SIX_TYPES),
    # non-maximal: pointwise first kind iff parallel H (T4.4), global
    # first kind iff parallel H with constant K (T4.8)
    "T4.4": (FIRST_KIND, PARALLEL),
    "T4.8": (GLOBAL_FIRST_KIND, PARALLEL_K_CONSTANT),
    # light-like H: global first kind iff harmonic (T4.6), and the
    # non-maximal equivalences of T3.5, T3.7 and T4.8
    "T4.6": (GLOBAL_FIRST_KIND, HARMONIC, *FLAT_LIGHTLIKE_PARALLEL,
             SIX_TYPES, PARALLEL_K_CONSTANT),
}

# Swaps that the table does not catch although no statement makes them
# equivalent.  On a maximal surface H is parallel, so T4.8's side B
# reads "grid-constant K", while the harmonic group reads "flat": they
# differ only on a maximal surface of constant nonzero K, and none is
# known here.
UNCAUGHT = {(tid, side, PARALLEL_K_CONSTANT)
            for tid in ("T3.4", "T4.3") for side in ("a", "b")}


def _name(fn) -> str:
    return next(name for name, other in SIDES.items() if other is fn)


def _swaps():
    """(theorem, side, replacement name, entry with the swap) of every
    single-side swap; the swapped side keeps its own text."""
    for tid in gm.theorem_ids():
        entry = gm.THEOREMS[tid]
        for side in ("a", "b"):
            own = getattr(entry, f"side_{side}")
            for other, fn in SIDES.items():
                if fn is own:
                    continue

                def mutant(recs, fn=fn, own=own):
                    return fn(recs)._replace(description=own(recs).description)

                yield tid, side, other, entry._replace(
                    **{f"side_{side}": mutant})


def test_sides_are_named():
    assert len(SIDES) == 11
    assert set(AGREE) == set(gm.theorem_ids())
    named = {name for group in AGREE.values() for name in group}
    assert named == set(SIDES)


def test_no_single_side_swap_survives(records, monkeypatch):
    survivors = set()
    for tid, side, other, swapped in _swaps():
        monkeypatch.setitem(gm.THEOREMS, tid, swapped)
        if all(v.consistent and _cell(v) == TABLE[tid, v.surface]
               for v in (gm.theorem_verdict_from_records(tid, recs, name)
                         for name, recs in records.items())):
            survivors.add((tid, side, other))
    monkeypatch.undo()
    equivalent = {(tid, side, other) for tid, side, other, _ in _swaps()
                  if {_name(getattr(gm.THEOREMS[tid], f"side_{side}")),
                      other} <= set(AGREE[tid])}
    assert survivors == equivalent | UNCAUGHT
    assert not equivalent & UNCAUGHT


def test_the_parallel_h_mutant_of_t41_is_caught(records, monkeypatch):
    """T4.1's side B reading the PARALLEL-H label with its own text:
    on the Weierstrass surface side A fails and the mutant passes."""
    mutant = gm._side("flat normal bundle (max |R^D|)", "RD", "PARALLEL-H")
    monkeypatch.setitem(gm.THEOREMS, "T4.1",
                        gm.THEOREMS["T4.1"]._replace(side_b=mutant))
    v = gm.theorem_verdict_from_records(
        "T4.1", records["weierstrass"], "weierstrass")
    assert v.premise_met and not v.consistent
    assert not v.side_a.passes and v.side_b.passes
