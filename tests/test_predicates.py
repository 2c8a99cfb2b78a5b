"""One predicate per question.

The pointwise labels (``PointGeometry.label_masks``) are the only
statement of each predicate: H's causal class, the verdict premises and
label-backed sides, and the summary's label extent all read them.  The
tests here pin the contradictions that two statements of one question
used to give, the label logic over drawn surfaces and tolerances, and
the catalog's tags as claims about labels and residuals.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minksurf import cli
from minksurf import gaussmap as gm
from minksurf import geometry as ge
from minksurf import report
from minksurf import surfaces as sf

from conftest import CATALOG_CASES, CATALOG_IDS, rows

# The boost of graph phi = u^2 + v^2 with rapidity ln 1e9: H is null with
# |H|_E = 2 sqrt(2) 1e-9 at every point, between CAUSAL_TOL and the
# default tolerance.
TINY_GRAPH = ["--catalog", "graph", "--param", "phi=1e-9*(u^2+v^2)",
              "--grid", "5x5"]


def run_json(argv, capsys) -> tuple[int, dict]:
    code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


class TestRegressions:
    def test_tiny_graph_is_maximal_and_not_trapped(self, capsys):
        code, out = run_json(["classify", *TINY_GRAPH], capsys)
        assert code == 0
        labels = [set(p["labels"]) for p in out["points"]]
        assert len(labels) == 25
        assert all("MAXIMAL" in row for row in labels)
        assert not any("MARGINALLY-TRAPPED" in row for row in labels)

    def test_tiny_graph_H_is_zero(self, capsys):
        code, out = run_json(["analyze", *TINY_GRAPH], capsys)
        assert code == 0
        assert {p["H_causal"] for p in out["points"]} == {"ZERO"}
        assert out["summary"]["H_causal_classes"] == ["ZERO"]

    def test_tiny_graph_lightlike_premise_not_met(self, capsys):
        code, out = run_json(["verify", "T4.6", *TINY_GRAPH], capsys)
        assert code == 0
        assert not out["verdict"]["premise_met"]
        assert out["verdict"]["vacuous"]

    @pytest.mark.parametrize("argv", [
        ["verify", "T3.9", "--catalog", "type-ii", "--grid", "2x2"],
        ["verify", "T3.10", "--catalog", "type-ii", "--param", "a=3",
         "--grid", "4x4"],
    ])
    def test_light_cone_is_in_no_quadric(self, argv, capsys):
        # <x, x> = 0 on type-ii, and only roundoff gives it a sign
        code, out = run_json(argv, capsys)
        assert code == 0
        assert out["summary"]["labels_everywhere"].count("IN-LIGHTCONE") == 1
        assert not out["verdict"]["premise_met"]


# -- label logic ----------------------------------------------------------

_MONOMIALS = ("u^2", "v^2", "u*v", "u^3", "u^2*v", "u*v^2", "v^3")



def _height(eps: float, coeffs: list[int]) -> str:
    terms = " + ".join(f"({c})*{m}" for c, m in zip(coeffs, _MONOMIALS))
    return f"{eps!r}*({terms})"


# eps * p(u, v): eps = 1 is the unboosted height, the others put |H|_E near
# the default tolerance
_HEIGHTS = st.builds(
    _height, st.sampled_from([1.0, 1e-9, 3e-9, 1e-8]),
    st.lists(st.integers(-3, 3), min_size=len(_MONOMIALS),
             max_size=len(_MONOMIALS)))

_SURFACES = st.one_of(
    _HEIGHTS.map(lambda phi: ("graph", {"phi": phi})),
    st.sampled_from(CATALOG_CASES))


def _premise_statement(theorem_id: str, live: gm.Records) -> bool:
    """Each registry premise as a statement about the labels of the live
    points, written out here apart from the registry."""
    labels = [set(record.labels) for record in rows(live)]

    def everywhere(label):
        return all(label in row for row in labels)

    def in_quadric(label):
        constant, _ = gm._constancy(live["position_inner"].tolist())
        return everywhere(label) and constant

    maximal = everywhere("MAXIMAL")
    nonmaximal = not any("MAXIMAL" in row for row in labels)
    return bool(labels) and {
        "T3.4": maximal, "T4.1": maximal, "T4.3": maximal,
        "T3.5": nonmaximal, "T4.4": nonmaximal, "T4.8": nonmaximal,
        "T3.7": True, "T3.11": True,
        "T3.9": in_quadric("IN-S31"), "T3.10": in_quadric("IN-H3"),
        "T4.6": everywhere("MARGINALLY-TRAPPED"),
    }[theorem_id]


@settings(max_examples=150)
@given(surface=_SURFACES, tau=st.sampled_from([1e-10, 1e-8, 1e-4]))
def test_label_logic(surface, tau):
    name, params = surface
    tol = ge.Tolerances(residual=tau)
    spec = sf.catalog_lookup(name, params)
    records = gm.evaluate_grid(spec, (3, 3), 3, tol)
    live = records.live
    for record in rows(live):
        labels = set(record.labels)
        assert (record.H_causal == "ZERO") == ("MAXIMAL" in labels)
        assert not {"MAXIMAL", "MARGINALLY-TRAPPED"} <= labels
        if "TOTALLY-UMBILICAL" in labels:
            assert "PSEUDO-UMBILICAL" in labels
    for theorem_id in gm.theorem_ids():
        verdict = gm.theorem_verdict_from_records(theorem_id, records, name)
        assert verdict.premise_met == _premise_statement(theorem_id, live), \
            theorem_id


def _count_stdev(monkeypatch) -> list[int]:
    # the length of each column that gm._stdev is called on, from now on
    calls = []
    real = gm._stdev

    def counted(values):
        calls.append(len(values))
        return real(values)

    monkeypatch.setattr(gm, "_stdev", counted)
    return calls


def test_verify_tests_constancy_once(monkeypatch, tmp_path):
    """The summary and the verdict of one verify run read one live
    selection of the records, and the premise judges the summary's
    statistics of <x, x>, so on a grid with skipped points the sd of
    each summary column (a ``gm._stdev``) is computed once."""
    calls = _count_stdev(monkeypatch)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "T3.9", "--catalog", "graph",
                     "--param", "phi=log(u)", "--domain=-1,1,-1,1",
                     "--grid", "4x4", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["summary"]["points_skipped"] == 8
    assert "IN-S31" in payload["summary"]["labels_somewhere"]
    # K_gauss, h_sq, f_estimate and position_inner
    assert calls == [8] * 4


def test_analyze_takes_one_sd_per_summary_column(monkeypatch, tmp_path):
    """position_inner_constant judges the summary's statistics of
    <x, x>, so a 32x32 analyze takes four sample sds, not five."""
    calls = _count_stdev(monkeypatch)
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--catalog", "example52", "--grid", "32x32",
                     "--out", str(out)]) == 0
    summary = json.loads(out.read_text(encoding="utf-8"))["summary"]
    assert summary["points_evaluated"] == 1024
    assert calls == [1024] * 4


# -- catalog tags ---------------------------------------------------------

# tag -> the label it claims everywhere on the sample
_LABEL_TAGS = {"flat": "FLAT", "maximal": "MAXIMAL",
               "flat-normal-bundle": "FLAT-NORMAL-BUNDLE",
               "marginally-trapped": "MARGINALLY-TRAPPED",
               "parallel-h": "PARALLEL-H", "in-s31": "IN-S31",
               "in-h3": "IN-H3"}
# tag -> the summary value it claims is at most tol
_RESIDUAL_TAGS = {
    "harmonic-gauss-map": lambda s: s["max_residuals"]["residual_harmonic"],
    "first-kind-gauss-map":
        lambda s: s["max_residuals"]["residual_first_kind"],
    "biharmonic": lambda s: s["bilaplacian_norm_max"],
}


@pytest.mark.parametrize("name,params", CATALOG_CASES, ids=CATALOG_IDS)
def test_catalog_tags_hold(name, params):
    spec = sf.catalog_lookup(name, params)
    summary = report.summarize(gm.evaluate_grid(spec, (7, 7), 4))
    tau = ge.DEFAULT_TOLERANCES.residual
    assert summary["points_skipped"] == 0
    tags = sf.catalog_entry(name).tags
    assert tags <= set(_LABEL_TAGS) | set(_RESIDUAL_TAGS)
    for tag in tags:
        if tag in _LABEL_TAGS:
            assert _LABEL_TAGS[tag] in summary["labels_everywhere"], tag
        else:
            assert _RESIDUAL_TAGS[tag](summary) <= tau, tag
