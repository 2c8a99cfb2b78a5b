"""Command line interface: exit codes, formats, determinism, file IO."""

from __future__ import annotations

import csv
import io
import json
import math
import signal
import warnings
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minksurf import cli
from minksurf import gaussmap as gm
from minksurf import report
from minksurf import surfaces as sf

from conftest import WILD_TEXT

DEGENERATE_TEXT = "x1 = u ; x2 = v ; x3 = u ; x4 = 0"


def run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as e:  # argparse rejects malformed flags this way
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class StillRunning(Exception):
    """A call outlived its time limit."""


@contextmanager
def time_limit(seconds: float):
    # StillRunning is no OSError, so cli.main cannot report it as exit 2
    def expire(signum, frame):
        raise StillRunning(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestAnalyze:
    def test_json_payload(self, capsys):
        code, out, err = run(
            ["analyze", "--catalog", "product", "--grid", "4x4"], capsys)
        assert code == 0 and err == ""
        d = json.loads(out)
        assert d["schema"] == 2
        assert d["command"] == "analyze"
        assert d["conventions"]["signature"] == [-1, 1, 1, 1]
        assert d["surface"]["name"] == "product"
        assert len(d["points"]) == 16
        s = d["summary"]
        assert s["points_evaluated"] == 16
        assert s["max_residuals"]["residual_route"] <= 1e-10
        assert s["max_residuals"]["residual_codazzi"] <= 1e-8

    def test_csv_rows(self, capsys):
        code, out, _ = run(
            ["analyze", "--catalog", "product", "--grid", "4x4",
             "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 17
        header = rows[0]
        assert header[:2] == ["u", "v"]
        for col in ("h_sq", "K_gauss", "residual_route", "f_estimate", "labels"):
            assert col in header
        # numeric cells round-trip through repr
        k = header.index("h_sq")
        assert float(rows[1][k]) == pytest.approx(-0.75, abs=1e-9)

    def test_csv_json_value_equality(self, capsys):
        code, jout, _ = run(
            ["analyze", "--catalog", "example52", "--grid", "3x3"], capsys)
        code2, cout, _ = run(
            ["analyze", "--catalog", "example52", "--grid", "3x3",
             "--format", "csv"], capsys)
        assert code == code2 == 0
        points = json.loads(jout)["points"]
        rows = list(csv.DictReader(io.StringIO(cout)))
        assert len(points) == len(rows) == 9
        for p, r in zip(points, rows):
            assert float(r["u"]) == p["u"]
            assert float(r["h_sq"]) == p["h_sq"]
            assert float(r["residual_first_kind"]) == p["residual_first_kind"]
            # the labels column joins the sorted labels with ';'
            assert len(p["labels"]) > 1
            assert r["labels"] == ";".join(p["labels"])

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_jobs_do_not_change_bytes(self, fmt, capsys):
        argv = ["analyze", "--catalog", "type-ii", "--grid", "6x5",
                "--format", fmt]
        code1, out1, _ = run(argv + ["--jobs", "1"], capsys)
        code4, out4, _ = run(argv + ["--jobs", "4"], capsys)
        assert code1 == code4 == 0
        assert out1 == out4

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(
            ["analyze", "--catalog", "plane", "--grid", "3x3",
             "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        d = json.loads(target.read_text())
        assert d["summary"]["points_evaluated"] == 9

    def test_surface_file(self, tmp_path, capsys):
        f = tmp_path / "wild.surf"
        f.write_text(WILD_TEXT + "\n")
        code, out, _ = run(
            ["analyze", "--surface-file", str(f), "--grid", "3x3"], capsys)
        assert code == 0
        d = json.loads(out)
        assert d["surface"]["source"] == "file"
        assert d["summary"]["max_residuals"]["residual_route"] <= 1e-10

    def test_domain_and_params(self, capsys):
        code, out, _ = run(
            ["analyze", "--catalog", "graph", "--param", "phi=u*v",
             "--domain", "0,1,0,1", "--grid", "3x3"], capsys)
        assert code == 0
        d = json.loads(out)
        assert d["surface"]["domain"] == [0.0, 1.0, 0.0, 1.0]
        assert all(0.0 < p["u"] < 1.0 for p in d["points"])

    def test_repeated_calls_share_no_values(self, capsys):
        # one parser serves every call in a process: a call's --param and
        # --domain must not reach the next call
        code, _, _ = run(
            ["analyze", "--catalog", "graph", "--param", "phi=u*v",
             "--domain", "0,1,0,1", "--grid", "2x2"], capsys)
        assert code == 0
        code, out, _ = run(["analyze", "--catalog", "type-i", "--grid", "2x2"],
                           capsys)
        assert code == 0
        surface = json.loads(out)["surface"]
        entry = sf.catalog_entry("type-i")
        assert surface["params"] == dict(entry.float_params)
        assert surface["domain"] == list(entry.domain.as_tuple())
        assert cli._parser().parse_args(["classify"]).param == []

    def test_negative_domain_bound_after_a_space(self, capsys):
        # a bound list that starts with "-" is the value of --domain, in
        # either spelling, and not an unknown option
        head = ["classify", "--catalog", "plane", "--grid", "3x3"]
        bounds = "-1e-10,1e-10,-1e-10,1e-10"
        spaced = run(head + ["--domain", bounds], capsys)
        joined = run(head + ["--domain=" + bounds], capsys)
        assert spaced == joined
        assert spaced[0] == 0
        assert json.loads(spaced[1])["surface"]["domain"] == [
            -1e-10, 1e-10, -1e-10, 1e-10]

    @pytest.mark.parametrize("phi", [-1.5, -0.0, 1e-07, 2])
    def test_numeric_height_survives_its_text(self, phi, tmp_path, capsys):
        # a number is parsed from its repr, so the surface text of the
        # catalog entry gives the same plans and the same points
        spec = sf.catalog_lookup("graph", {"phi": phi})
        f = tmp_path / "graph.surf"
        f.write_text(sf.serialize_surface(spec), encoding="utf-8")
        assert sf.parse_surface(f.read_text(encoding="utf-8")) == spec
        blocks = []
        for source in (["--catalog", "graph", "--param", f"phi={phi!r}"],
                       ["--surface-file", str(f)]):
            code, out, _ = run(["analyze", *source, "--grid", "3x3"], capsys)
            assert code == 0
            blocks.append(out[out.index('"points"'):out.index('"summary"')])
        assert blocks[0] == blocks[1]

    def test_order_four(self, capsys):
        code, out, _ = run(
            ["analyze", "--catalog", "type-i", "--param", "b=0.5",
             "--grid", "3x3", "--order", "4"], capsys)
        assert code == 0
        d = json.loads(out)
        assert d["summary"]["bilaplacian_norm_max"] <= 1e-8

    def test_whole_grid_degenerate_exits_3(self, tmp_path, capsys):
        f = tmp_path / "degen.surf"
        f.write_text(DEGENERATE_TEXT + "\n")
        code, out, _ = run(
            ["analyze", "--surface-file", str(f), "--grid", "3x3"], capsys)
        assert code == 3
        d = json.loads(out)
        assert d["summary"]["points_evaluated"] == 0
        assert d["summary"]["points_skipped"] == 9
        assert d["summary"]["skip_reasons"] == ["degenerate"]


class TestPointFailures:
    """Arithmetic failures of a user surface become per-point skip
    reasons, never a traceback; exit 3 only when every point fails."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("phi,grid,code,reason,skipped", [
        ("log(u)", "2x2", 0, "domain-error", 2),
        ("1/u", "3x3", 0, "singular", 3),
        ("exp(1000*u)", "2x2", 0, "overflow", 2),
        ("log(u-5)", "2x2", 3, "domain-error", 4),
        ("sin(1e200*u*1e200)", "2x2", 3, "overflow", 4),
        # a float error in a constant subexpression names every point
        ("u+1/0", "2x2", 3, "singular", 4),
        ("u+sqrt(0-1)", "2x2", 3, "domain-error", 4),
        ("u+log(0)", "2x2", 3, "domain-error", 4),
    ])
    def test_skip_reason(self, phi, grid, code, reason, skipped, capsys):
        got, out, err = run(["analyze", "--catalog", "graph", "--param",
                             f"phi={phi}", "--grid", grid], capsys)
        assert (got, err) == (code, "")
        d = json.loads(out)
        summary = d["summary"]
        assert summary["skip_reasons"] == [reason]
        assert summary["points_skipped"] == skipped
        for p in d["points"]:
            assert p["ok"] == (p["skip_reason"] is None)
            if p["ok"]:
                assert all(math.isfinite(x) for x in p["K"] + p["H"])

    def test_constant_sqrt_of_zero_is_valid(self, capsys):
        code, out, err = run(["classify", "--catalog", "graph", "--param",
                              "phi=u+sqrt(0)", "--grid", "2x2"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["summary"]["points_skipped"] == 0

    _ATOMS = st.sampled_from(["u", "v", "0", "1", "2.5", "1000"])
    _PHI = st.recursive(_ATOMS, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(
            lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "sinh", "cosh", "exp",
                                   "sqrt", "log"]), inner).map(
            lambda t: f"{t[0]}({t[1]})"),
        st.tuples(inner, st.sampled_from(["2", "3", "-1"])).map(
            lambda t: f"({t[0]})^{t[1]}")), max_leaves=6)

    @settings(max_examples=30, deadline=None)
    @given(phi=_PHI)
    def test_random_height_functions_end_cleanly(self, phi):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(["analyze", "--catalog", "graph", "--param",
                                 f"phi={phi}", "--grid", "2x2"])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert err.getvalue() == "" or err.getvalue().startswith("error: ")


class TestHugeValues:
    # <x, x> is about 1.69e308 at every point: finite, but the sum of two
    # such values is not
    HUGE = ["--catalog", "product", "--param", "a=1", "--param", "b=1.3e154",
            "--grid", "3x3"]

    @pytest.mark.parametrize("argv", [
        ["analyze"], ["analyze", "--format", "csv"], ["classify"],
        ["classify", "--format", "csv"], ["verify", "T3.9"],
        ["verify", "T4.3"]], ids=" ".join)
    def test_summary_mean_does_not_overflow(self, argv, capsys):
        code, out, err = run(argv + self.HUGE, capsys)
        assert (code, err) == (0, "")
        if argv == ["analyze"]:
            stats = json.loads(out)["summary"]["position_inner"]
            assert stats["min"] <= stats["mean"] <= stats["max"]


class TestClassify:
    def test_quadric_label_kept_when_constant(self, capsys):
        code, out, _ = run(
            ["classify", "--catalog", "s31-flat", "--grid", "4x4"], capsys)
        assert code == 0
        s = json.loads(out)["summary"]
        assert "IN-S31" in s["labels_everywhere"]

    def test_quadric_label_dropped_when_varying(self, capsys):
        # the harmonic graph crosses spheres of varying radius, so the
        # pointwise quadric marker must not survive grid aggregation
        code, out, _ = run(
            ["classify", "--catalog", "graph", "--param", "phi=u*v",
             "--grid", "4x4"], capsys)
        assert code == 0
        s = json.loads(out)["summary"]
        assert "IN-S31" not in s["labels_everywhere"]
        assert "MAXIMAL" in s["labels_everywhere"]

    def test_points_carry_labels_only(self, capsys):
        code, out, _ = run(
            ["classify", "--catalog", "type-ii", "--grid", "3x3"], capsys)
        assert code == 0
        pts = json.loads(out)["points"]
        assert all(set(p) == {"u", "v", "ok", "skip_reason", "labels"} for p in pts)
        assert all("MARGINALLY-TRAPPED" in p["labels"] for p in pts)

    @pytest.mark.parametrize("rel_sd,constant", [(1e-7, True), (1e-5, False)])
    def test_quadric_label_follows_premise_rule(self, rel_sd, constant):
        # the summary's quadric labels and the T3.9 premise answer the same
        # question, "is <x, x> grid-constant", so they must agree on every
        # spread of <x, x>, not only on exact or wildly varying data
        delta = 2.0 * rel_sd  # sd relative to 1 + |mean| = 2
        records = gm.Records.of([
            gm.PointRecord(u=0.0, v=float(i), ok=True,
                           position_inner=1.0 + (-1) ** i * delta,
                           labels=("IN-S31",))
            for i in range(8)])
        tol = report.DEFAULT_TOLERANCES
        summary = report.summarize(records)
        verdict = gm.theorem_verdict_from_records("T3.9", records, tol=tol)
        assert summary["position_inner_constant"] is constant
        assert ("IN-S31" in summary["labels_everywhere"]) is constant
        assert verdict.premise_met is constant


class TestVerify:
    def test_consistent_exits_0(self, capsys):
        code, out, _ = run(
            ["verify", "T4.4", "--catalog", "example52", "--grid", "4x4"], capsys)
        assert code == 0
        v = json.loads(out)["verdict"]
        assert v["consistent"] and v["side_a"]["passes"] and v["side_b"]["passes"]

    def test_vacuous_premise_exits_0(self, capsys):
        code, out, _ = run(
            ["verify", "T3.9", "--catalog", "h3-flat", "--grid", "3x3"], capsys)
        assert code == 0
        v = json.loads(out)["verdict"]
        assert v["vacuous"] and not v["premise_met"]

    def test_inconsistent_exits_1(self, monkeypatch, capsys):
        # honest evidence never contradicts a registry entry, so force a
        # split verdict to pin the exit-code contract
        real = gm.theorem_verdict_from_records

        def rigged(tid, records, surface_name="", tol=None):
            v = real(tid, records, surface_name, tol)
            a = gm.SideResult(v.side_a.description, True, 0.0)
            b = gm.SideResult(v.side_b.description, False, 1.0)
            import dataclasses
            return dataclasses.replace(v, side_a=a, side_b=b, consistent=False,
                                       premise_met=True, vacuous=False)

        monkeypatch.setattr(report, "theorem_verdict_from_records", rigged)
        code, out, _ = run(
            ["verify", "T4.4", "--catalog", "example52", "--grid", "3x3"], capsys)
        assert code == 1
        assert not json.loads(out)["verdict"]["consistent"]

    def test_degenerate_grid_exits_3(self, tmp_path, capsys):
        f = tmp_path / "degen.surf"
        f.write_text(DEGENERATE_TEXT + "\n")
        code, out, _ = run(
            ["verify", "T4.1", "--surface-file", str(f), "--grid", "3x3"], capsys)
        assert code == 3


class TestCatalogCommand:
    def test_lists_families(self, capsys):
        code, out, _ = run(["catalog"], capsys)
        assert code == 0
        d = json.loads(out)
        names = [e["name"] for e in d["catalog"]]
        assert names == ["example52", "graph", "h3-flat", "plane",
                         "product", "s31-flat", "type-i", "type-ii"]

    def test_csv_rows(self, capsys):
        code, out, _ = run(["catalog", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["name", "float_params", "expression_params",
                           "domain", "tags"]
        assert [r[0] for r in rows[1:]] == list(sf.catalog_names())
        graph = next(r for r in rows[1:] if r[0] == "graph")
        assert graph[2] == "phi"


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["verify", "T9.99", "--catalog", "plane"],
        ["analyze", "--catalog", "nosuch"],
        ["analyze", "--catalog", "graph"],  # missing phi
        ["analyze", "--catalog", "plane", "--grid", "seven"],
        ["analyze", "--catalog", "plane", "--domain", "1,2,3"],
        ["analyze", "--catalog", "plane", "--domain", "--out", "x"],
        ["analyze", "--catalog", "plane", "--param", "novalue"],
        ["verify", "T4.4", "--catalog", "example52", "--grid", "3x3",
         "--tol", "nan"],
        ["verify", "T4.4", "--catalog", "example52", "--grid", "3x3",
         "--tol", "inf"],
        ["verify", "T4.4", "--catalog", "example52", "--grid", "3x3",
         "--tol", "0"],
        ["analyze", "--catalog", "plane", "--grid", "2x2",
         "--domain", "0,inf,0,1"],
        ["verify", "T4.4", "--catalog", "s31-flat", "--param", "r=nan",
         "--grid", "2x2"],
        ["analyze", "--catalog", "graph", "--param", "phi=inf",
         "--grid", "2x2"],
        ["analyze", "--catalog", "graph", "--param", "phi=1e400*u",
         "--grid", "2x2"],
        ["analyze", "--catalog", "plane", "--grid", "2x2", "--out", "/"],
        ["verify", "T4.4", "--catalog", "plane", "--grid", "2x2",
         "--format", "csv"],
        ["analyze", "--catalog", "graph", "--param", "phi=u^99999999999",
         "--grid", "2x2"],
        # expressions nested past Python's recursion limit
        ["analyze", "--catalog", "graph", "--param", "phi=" + "-" * 1200 + "u",
         "--grid", "2x2"],
        ["analyze", "--catalog", "graph", "--param",
         "phi=" + "(" * 400 + "u" + ")" * 400, "--grid", "2x2"],
        ["analyze", "--catalog", "graph", "--param",
         "phi=" + "+".join(["u"] * 1200), "--grid", "2x2"],
        # finite bounds whose width overflows
        ["classify", "--catalog", "plane", "--grid", "2x2",
         "--domain=-1e308,1e308,0,1"],
        ["classify", "--catalog", "plane", "--grid", "2x2",
         "--domain=0,1,-1e308,1e308"],
    ])
    def test_exit_2_with_stderr_message(self, argv, capsys):
        with time_limit(30.0):
            code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") or "usage" in err

    @pytest.mark.parametrize("grid", ["1x5", "5x1"])
    def test_grid_needs_two_points_per_axis(self, grid, capsys):
        code, out, err = run(["classify", "--catalog", "plane", "--grid",
                              grid], capsys)
        assert (code, out) == (2, "")
        assert err == "error: grid needs at least 2 points per axis\n"

    @pytest.mark.parametrize("phi", ["u^\u00b2", "\u0663*u"])
    def test_non_ascii_digit_is_a_parse_error(self, phi, capsys):
        # a superscript or Arabic-Indic digit is no number: the error
        # names the character and its position
        code, out, err = run(["analyze", "--catalog", "graph", "--param",
                              f"phi={phi}", "--grid", "2x2"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: unexpected character")
        assert "column" in err

    @pytest.mark.parametrize("text, position", [
        ("x1 = 0; x2 = u; x3 = v\nx4 = " + "sin(" * 101 + "u" + ")" * 101,
         "(line 2, column 406)"),
        ("domain = [-1e308,1e308]x[0,1]\nx1 = 0; x2 = u; x3 = v; x4 = 0",
         "(line 1, column 10)"),
    ], ids=["deep-component", "overflowing-domain"])
    def test_surface_file_error_names_its_position(self, text, position,
                                                  tmp_path, capsys):
        f = tmp_path / "s.surf"
        f.write_text(text + "\n")
        code, out, err = run(["classify", "--surface-file", str(f),
                              "--grid", "2x2"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and position in err

    def test_verify_needs_a_theorem(self):
        with pytest.raises(ValueError, match="theorem"):
            report.RunConfig(command="verify", catalog="plane")

    def test_both_sources_rejected(self, tmp_path, capsys):
        f = tmp_path / "s.surf"
        f.write_text(WILD_TEXT + "\n")
        code, _, err = run(
            ["analyze", "--catalog", "plane", "--surface-file", str(f)], capsys)
        assert code == 2 and "error:" in err

    def test_no_source_rejected(self, capsys):
        code, _, err = run(["analyze"], capsys)
        assert code == 2 and "error:" in err

    def test_missing_surface_file(self, tmp_path, capsys):
        code, _, err = run(
            ["analyze", "--surface-file", str(tmp_path / "absent.surf")], capsys)
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("text, extra", [
        ("param a = 1; x1 = a*u; x2 = u; x3 = v; x4 = 0", ["--param", "a=-inf"]),
        ("param a = nan; x1 = a*u; x2 = u; x3 = v; x4 = 0", []),
        ("domain = [0,inf]x[0,1]; x1 = u; x2 = u; x3 = v; x4 = 0", []),
    ], ids=["merged-param", "file-param", "file-domain"])
    def test_non_finite_surface_file_input(self, tmp_path, capsys, text,
                                           extra):
        f = tmp_path / "s.surf"
        f.write_text(text + "\n")
        code, out, err = run(
            ["analyze", "--surface-file", str(f), "--grid", "2x2", *extra],
            capsys)
        assert code == 2 and out == "" and "finite" in err

    def test_bad_surface_text(self, tmp_path, capsys):
        f = tmp_path / "bad.surf"
        f.write_text("x1 = u +\n")
        code, _, err = run(["analyze", "--surface-file", str(f)], capsys)
        assert code == 2 and "error:" in err
