"""The JSON records writer against the stdlib encoder.

``report`` writes the ``points`` block of analyze and classify reports
from a template compiled from the column shapes of a ``gaussmap.Records``
block, filled from its columns.  The crafted records here go to the
writer as a block (``gm.Records.of``) and to the oracle,
``json.dumps(payload, indent=2, allow_nan=True) + "\\n"`` on the
records' ``_asdict()`` payloads, which shares no code with that writer.
The CLI rejects non-finite input, so these tests are the only ones that
put NaN and infinities into a report.
"""

from __future__ import annotations

import csv
import io
import json
import math
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minksurf import gaussmap as gm
from minksurf import report
from minksurf import surfaces as sf
from minksurf.gaussmap import PointRecord
from minksurf.geometry import LABELS

from conftest import rows

ANALYZE = PointRecord._fields
CLASSIFY = ("u", "v", "ok", "skip_reason", "labels")

SPECIAL = (-0.0, 5e-324, 1e16, 1e-5, math.nan, math.inf, -math.inf)
FINITE_SPECIAL = tuple(x for x in SPECIAL if math.isfinite(x))

# An envelope like a report's, around the records.
HEAD = {"schema": 2, "command": "analyze", "conventions": report.CONVENTIONS,
        "surface": {"name": "s", "params": {"a": 1.5}, "domain": [0, 1.0]},
        "grid": {"nu": 2, "nv": 2}}
TAIL = {"summary": {"points_total": 3, "lemma42_max": None,
                    "skip_reasons": [], "K_gauss": {"mean": math.nan}}}


def oracle(records, names) -> str:
    points = []
    for rec in records:
        fields = rec._asdict()
        points.append({name: fields[name] for name in names})
    payload = {**HEAD, "points": points, **TAIL}
    return json.dumps(payload, indent=2, allow_nan=True) + "\n"


def written(records, names) -> str:
    return written_block(gm.Records.of(records), names)


def written_block(block, names) -> str:
    return report._to_json(
        {**HEAD, "points": report._points_json(block, names), **TAIL})


def assert_floats_round_trip(text, records, names):
    """json.loads gives back every finite float bit for bit (so -0.0
    stays -0.0) and every non-finite one as itself."""
    for rec, point in zip(records, json.loads(text)["points"], strict=True):
        for name in names:
            value = getattr(rec, name)
            if isinstance(value, float):
                value, back = (value,), (point[name],)
            elif (isinstance(value, tuple) and value
                  and isinstance(value[0], float)):
                back = tuple(point[name])
            else:
                continue
            for x, y in zip(value, back, strict=True):
                if math.isnan(x):
                    assert math.isnan(y)
                else:
                    assert x.hex() == y.hex()


def special_records() -> list[PointRecord]:
    live = [PointRecord(u=x, v=-x, ok=True, H_causal="spacelike",
                        K=(x, 0.0, x), nu=(x,) * 6, lemma42=x,
                        bilaplacian_norm=x, labels=("FLAT", "MAXIMAL"))
            for x in FINITE_SPECIAL]
    skipped = [PointRecord(u=x, v=x, ok=False, skip_reason="overflow",
                           K=(x, 1.0, x), lemma42=x, bilaplacian_norm=-x)
               for x in SPECIAL]
    text = "quote\" back\\ é\n"
    return [PointRecord(u=0.5, v=0.25, ok=False, skip_reason="degenerate"),
            PointRecord(u=0.5, v=0.5, ok=False, skip_reason=text),
            PointRecord(u=1.0, v=2.0, ok=True, H_causal=text),
            *live, *skipped]


@pytest.mark.parametrize("names", [ANALYZE, CLASSIFY],
                         ids=["analyze", "classify"])
class TestAgainstStdlib:
    def test_special_records(self, names):
        records = special_records()
        text = written(records, names)
        assert text == oracle(records, names)
        assert_floats_round_trip(text, records, names)

    def test_skipped_record_is_zero_filled(self, names):
        records = [PointRecord(u=0.1, v=0.2, ok=False, skip_reason="singular")]
        assert records[0].lemma42 is None and records[0].labels == ()
        assert written(records, names) == oracle(records, names)

    def test_empty_record_list(self, names):
        assert written([], names) == oracle([], names)
        assert '"points": [],' in written([], names)

    def test_report_run(self, names, monkeypatch):
        """A whole report through ``report.run``, with crafted records;
        summarize needs finite values on the points it evaluates, so the
        non-finite ones sit on skipped points."""
        records = special_records()
        monkeypatch.setattr(report, "evaluate_records",
                            lambda spec, cfg: gm.Records.of(records))
        command = "analyze" if names == ANALYZE else "classify"
        text = report.run(report.RunConfig(command=command, catalog="plane",
                                           grid=(2, 2))).text
        payload = json.loads(text)
        payload["points"] = json.loads(oracle(records, names))["points"]
        assert text == json.dumps(payload, indent=2, allow_nan=True) + "\n"
        assert_floats_round_trip(text, records, names)


def test_evaluated_block():
    """A block from ``evaluate_grid``, skipped rows included, against
    the oracle fed its rows, and written again from ``Records.of``."""
    block = gm.evaluate_grid(_log_graph(), (4, 3), order=4)
    records = rows(block)
    assert {r.skip_reason for r in records} == {None, "domain-error"}
    for names in (ANALYZE, CLASSIFY):
        assert written_block(block, names) == oracle(records, names)
        assert written(records, names) == oracle(records, names)


def _log_graph():
    return sf.catalog_lookup("graph", {"phi": "log(u)"})._replace(
        domain=sf.Domain(-1.0, 1.0, -1.0, 1.0))


@pytest.mark.parametrize("order", [3, 4])
def test_records_of_matches_an_evaluated_block(order):
    """``Records.of`` lays out columns as ``evaluate_batch`` does: the
    same dtype and shape, and the same repr of every value, so -0.0 and
    None count.  The log graph's block has skipped rows; example52's is
    all live, so it is the builder's own block, as it returns it."""
    example52 = sf.catalog_lookup("example52")
    for spec, live in ((_log_graph(), False), (example52, True)):
        points = sf.cell_centers(spec.domain, 6, 5)
        block = gm.evaluate_batch(spec, points, order=order)
        assert block["ok"].all() == live
        built = gm.Records.of(rows(block))
        assert built.columns.keys() == block.columns.keys()
        for name, col in block.columns.items():
            other = built[name]
            assert (other.dtype, other.shape) == (col.dtype, col.shape), name
            assert (list(map(repr, other.tolist()))
                    == list(map(repr, col.tolist())))


def test_empty_block_has_the_default_widths():
    """The empty block joins with full ones (``evaluate_batch`` does so
    when it splits off the points whose immersion fails)."""
    empty = gm.Records.of([])
    block = gm.evaluate_grid(_log_graph(), (4, 3))
    assert len(empty) == 0
    assert empty["labels"].dtype == bool
    assert empty["labels"].shape == (0, len(LABELS))
    for name, default in PointRecord._field_defaults.items():
        col, full = empty[name], block[name]
        assert (col.dtype, col.shape[1:]) == (full.dtype, full.shape[1:])
        if col.dtype == float:
            assert col.shape == (0, *np.shape(default)), name
    assert rows(gm.Records.join([empty, block])) == rows(block)


def _field_strategy(name: str, hint, default):
    floats = st.floats(allow_nan=True, allow_infinity=True)
    if hint is float:
        return floats
    if hint is bool:
        return st.booleans()
    if hint is str:
        return st.text(max_size=8)
    if hint == typing.Optional[float]:
        return st.none() | floats
    if hint == typing.Optional[str]:
        return st.none() | st.text(max_size=8)
    if name == "labels":
        return st.sets(st.sampled_from(LABELS), max_size=3).map(
            lambda labels: tuple(sorted(labels)))
    return st.tuples(*[floats] * len(default))


def _record_strategy():
    hints = typing.get_type_hints(PointRecord)
    return st.builds(PointRecord, **{
        name: _field_strategy(name, hints[name], default)
        for name, default in PointRecord._field_defaults.items()})


@settings(max_examples=60, deadline=None)
@given(st.lists(_record_strategy(), max_size=4))
def test_schema_conformant_records(records):
    for names in (ANALYZE, CLASSIFY):
        text = written(records, names)
        assert text == oracle(records, names)
        assert_floats_round_trip(text, records, names)


# -- the float encoder, by bit pattern ---------------------------------------

# -0.0 beside 0.0, NaNs with different payloads and signs (a signaling one
# among them), the infinities, subnormals, and 1.0
SPECIAL_BITS = (0x0, 0x8000000000000000, 0x7FF8000000000000,
                0xFFF8000000000000, 0x7FF0000000000001, 0x7FF8000000000ABC,
                0xFFF0000000000ABC, 0x7FF0000000000000, 0xFFF0000000000000,
                0x1, 0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF,
                0x3FF0000000000000)
_BITS = st.sampled_from(SPECIAL_BITS) | st.integers(0, 2**64 - 1)


@st.composite
def _float_blocks(draw):
    """A block whose float64 columns hold drawn bit patterns: all equal,
    all distinct, or drawn from a small pool."""
    n = draw(st.integers(1, 4))
    block = gm.Records.of([PointRecord(ok=True, labels=("FLAT",))] * n)
    names = [name for name, col in block.columns.items()
             if col.dtype == float]
    size = sum(block[name].size for name in names)
    mode = draw(st.sampled_from(("equal", "distinct", "pool")))
    if mode == "equal":
        bits = [draw(_BITS)] * size
    elif mode == "distinct":
        bits = draw(st.lists(_BITS, min_size=size, max_size=size,
                             unique=True))
    else:
        pool = draw(st.lists(_BITS, min_size=1, max_size=6))
        bits = draw(st.lists(st.sampled_from(pool), min_size=size,
                             max_size=size))
    values = np.array(bits, dtype=np.uint64).view(float)
    start = 0
    for name in names:
        shape = block[name].shape
        block.columns[name] = values[start:start + block[name].size].reshape(
            shape)
        start += block[name].size
    return block


def csv_oracle(records) -> str:
    """The analyze CSV with each value's own text: ``float.__repr__``
    for a float."""
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return float.__repr__(value) if isinstance(value, float) else value

    tuples = report._CSV_TUPLES
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*report._CSV_SCALARS,
                     *(col for _, cols in tuples for col in cols), "labels"])
    for rec in records:
        writer.writerow([*(cell(getattr(rec, name))
                           for name in report._CSV_SCALARS),
                         *(float.__repr__(x) for name, _ in tuples
                           for x in getattr(rec, name)),
                         ";".join(rec.labels)])
    return buf.getvalue()


@settings(max_examples=40)
@given(_float_blocks(), st.sampled_from([1, 3, 256]))
def test_float_texts_are_per_value_reprs(block, block_points):
    """Whether each distinct bit pattern of a block is encoded once (the
    equal and pooled blocks) or every value in place (the all-distinct
    ones), the text is each value's own ``float.__repr__`` (JSON's names
    for the non-finite ones), in blocks of any size."""
    records = rows(block)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "BLOCK_POINTS", block_points)
        for names in (ANALYZE, CLASSIFY):
            assert written_block(block, names) == oracle(records, names)
        got = report._records_csv(block, report._CSV_SCALARS,
                                  report._CSV_TUPLES)
    assert got == csv_oracle(records)
