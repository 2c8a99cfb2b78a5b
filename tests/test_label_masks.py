"""The label mask column of a record block.

``geometry.LABELS`` names the labels of ``PointGeometry.label_masks`` in
sorted order, and a ``gaussmap.Records`` block holds them as one bool
column of shape (n, len(LABELS)).  ``Records.label_extent`` is checked
here against set algebra on each row's names, written out apart from
the block, and the column against the masks it is filled from.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minksurf import gaussmap as gm
from minksurf import geometry as ge
from minksurf import surfaces as sf
from minksurf.gaussmap import PointRecord
from minksurf.geometry import LABELS

from conftest import MIXED_FILE, grid_geometry, rows

QUADRIC = {"IN-S31", "IN-H3", "IN-LIGHTCONE"}


def test_labels_are_sorted_and_name_the_masks():
    pg = grid_geometry(sf.catalog_lookup("example52"), 3, 3)
    assert LABELS == tuple(sorted(LABELS))
    assert set(LABELS) == set(pg.label_masks)
    assert QUADRIC <= set(LABELS)


# -- label_extent against set algebra ----------------------------------------

# Rows of label names, in any order, and quadric labels on many of them.
_ROW = st.lists(st.sampled_from(LABELS), unique=True, max_size=len(LABELS))
_QUADRIC_ROW = st.builds(lambda row, extra: [*row, *extra], _ROW, st.sets(
    st.sampled_from(sorted(QUADRIC)), min_size=1))


@st.composite
def _blocks(draw):
    """(rows of names, whether <x, x> is grid-constant, the block)."""
    names = draw(st.lists(_ROW | _QUADRIC_ROW, max_size=6))
    names = [list(dict.fromkeys(row)) for row in names]
    constant = draw(st.booleans()) or len(names) < 2
    if constant:
        inner = [draw(st.floats(-2.0, 2.0))] * len(names)
    else:
        # a spread far beyond the constancy cutoff
        inner = [float(k) for k in range(len(names))]
    records = [PointRecord(ok=True, position_inner=p, labels=tuple(row))
               for row, p in zip(names, inner)]
    return names, constant, gm.Records.of(records)


def extent_oracle(names, constant):
    """The labels held at every point and at some point, by intersection
    and union of the rows' name sets; a quadric label is held
    everywhere only where <x, x> is grid-constant.  No rows hold no
    label."""
    sets = [set(row) for row in names]
    everywhere = set.intersection(*sets) if sets else set()
    somewhere = set().union(*sets)
    if not constant:
        everywhere -= QUADRIC
    return tuple(sorted(everywhere)), tuple(sorted(somewhere))


@given(_blocks())
def test_label_extent_is_set_algebra(drawn):
    names, constant, block = drawn
    assert block.position_constant == constant
    assert block.label_extent == extent_oracle(names, constant)


@given(_blocks())
def test_names_round_trip(drawn):
    names, _, block = drawn
    assert block["labels"].dtype == bool
    assert block["labels"].shape == (len(names), len(LABELS))
    for k, row in enumerate(names):
        assert block.point(k).labels == tuple(sorted(row))
    assert block.lists("labels") == [[tuple(sorted(row)) for row in names]]


@given(_blocks(), st.data())
def test_select_and_join_keep_the_column(drawn, data):
    names, _, block = drawn
    keep = data.draw(st.lists(st.booleans(), min_size=len(names),
                              max_size=len(names)))
    part = block.select(np.array(keep, dtype=bool))
    assert part["labels"].shape == (sum(keep), len(LABELS))
    assert [r.labels for r in rows(part)] == [
        tuple(sorted(row)) for row, on in zip(names, keep) if on]
    joined = gm.Records.join([block, part])
    assert joined["labels"].dtype == bool
    assert joined["labels"].shape == (len(names) + sum(keep), len(LABELS))
    assert rows(joined) == rows(block) + rows(part)


def test_empty_block_holds_no_label():
    empty = gm.Records.of([])
    assert empty["labels"].shape == (0, len(LABELS))
    assert empty.label_extent == ((), ())


def test_unknown_label_is_rejected():
    with pytest.raises(ValueError):
        gm.Records.of([PointRecord(labels=("HARMONIC",))])


# -- the column as evaluated -------------------------------------------------

def test_live_block_holds_the_masks():
    spec = sf.catalog_lookup("example52")
    pg = grid_geometry(spec, 4, 3)
    block = gm.evaluate_batch(spec, sf.cell_centers(spec.domain, 4, 3))
    assert block["ok"].all()
    assert block["labels"].dtype == bool
    for j, label in enumerate(LABELS):
        assert np.array_equal(block["labels"][:, j], pg.label_masks[label])


@pytest.mark.parametrize("text", [
    MIXED_FILE.read_text(encoding="utf-8"),
    "x1 = u ; x2 = v ; x3 = u ; x4 = 0",  # degenerate everywhere
], ids=["mixed-skips", "degenerate"])
def test_skipped_rows_hold_no_label(text):
    spec = sf.parse_surface(text)
    block = gm.evaluate_batch(spec, sf.cell_centers(spec.domain, 6, 6))
    labels = block["labels"]
    assert labels.dtype == bool and labels.shape == (36, len(LABELS))
    assert not labels[~block["ok"]].any()
    assert (~block["ok"]).any()


def test_classify_point_reads_the_masks():
    spec = sf.catalog_lookup("type-ii")
    pg = ge.PointGeometry(sf.evaluate_immersion(spec, 0.4, 0.2, 3),
                          base=(0.4, 0.2))
    block = gm.evaluate_batch(spec, [(0.4, 0.2)])
    assert ge.classify_point(pg) == set(block.point(0).labels)
