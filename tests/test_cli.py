"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json

import pytest

import adiabat.cli
import adiabat.transport
from adiabat.cli import main, parse_matrix
from adiabat.errors import Divergence

from tests.test_braid import even_winding_braid, odd_winding_braid


@pytest.fixture()
def braid_file(tmp_path):
    path = tmp_path / "braid.json"
    path.write_text(even_winding_braid().to_json())
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


class TestParsing:
    def test_parse_matrix(self):
        A = parse_matrix("2,1;1,1")
        assert A.to_lists() == [[2, 1], [1, 1]]

    def test_bad_matrix_exit_code(self, capsys):
        code, _, err = run(capsys, ["count", "--matrix", "2,x;1,1",
                                    "--rank", "1", "--degree", "2"])
        assert code == 1
        assert "bad --matrix" in json.loads(err)["message"]

    def test_usage_error_exits_one(self, capsys):
        code, _, _ = run(capsys, ["count", "--rank", "1", "--degree", "2"])
        assert code == 1

    @pytest.mark.parametrize("argv, code", [
        (["vortex", "--holonomies", "0.13,-0.21;-0.32,0.05"], 0),
        (["vortex", "--holonomies", "0.1"], 1),
        (["vortex", "--holonomies", "nan,0.2"], 1),
        (["vortex", "--holonomies", "0.1,0.2;0.3"], 1),
        (["vortex", "--holonomies", "0.1,inf"], 1),
        (["vortex", "--holonomies", "0.1,0.2", "--modulus", "0", "inf"], 1),
        (["vortex", "--holonomies", "0.1,0.2", "--tau", "nan"], 1),
        (["newton", "--braid", "{braid}", "--eps", "0.2,nan"], 1),
    ])
    def test_numeric_input_checked_and_json_strict(self, capsys, braid_file,
                                                   argv, code):
        got, out, err = run(capsys, [a.format(braid=braid_file)
                                     for a in argv])
        assert got == code
        if code == 0:
            assert "moment_residual" in strict_json(out)
        else:
            assert out == ""
            assert "error" in strict_json(err)

    def test_error_detail_json_strict(self):
        exc = Divergence("x", residual=float("nan"),
                         log=[{"residual": float("inf")}])
        payload = strict_json(json.dumps(exc.to_json(), allow_nan=False))
        assert payload["detail"] == {"residual": "nan",
                                     "log": [{"residual": "inf"}]}


class TestExactLayer:
    def test_spinc_json(self, capsys):
        code, out, _ = run(capsys, ["spinc", "--matrix", "2,1;1,1",
                                    "--degree", "3"])
        assert code == 0
        classes = json.loads(out)
        assert len(classes) == 1  # |det(1 - f*)| = 1
        assert classes[0]["degree"] == 3

    def test_fix_csv(self, capsys):
        code, out, _ = run(capsys, ["fix", "--matrix=-1,0;0,-1",
                                    "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "fixed_point,torsion_class"
        assert len(lines) == 5  # header + four half-integer points

    def test_count_values(self, capsys):
        code, out, _ = run(capsys, ["count", "--matrix", "2,1;1,1",
                                    "--rank", "2", "--degree", "3"])
        assert code == 0
        table = json.loads(out)
        assert all(row["count"] == -6 for row in table["rows"])

    def test_count_degree_too_small_exit(self, capsys):
        code, _, err = run(capsys, ["count", "--matrix", "2,1;1,1",
                                    "--rank", "1", "--degree", "0"])
        assert code == 1
        assert json.loads(err)["error"] == "degree_too_small"


class TestBraidLayer:
    def test_census_roundtrip(self, capsys, braid_file):
        code, out, _ = run(capsys, ["braid-census", "--braid", braid_file])
        assert code == 0
        census = json.loads(out)
        assert census["permutation"] == [0, 1]
        assert len(census["fixed_strands"]) == 2

    def test_braid_make_deterministic(self, capsys, tmp_path):
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps([{"class": [1, 0], "count": 1}]))
        argv = ["braid-make", "--matrix=-1,0;0,-1", "--rank", "3",
                "--targets", str(targets)]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        # the produced braid passes the census check
        made = tmp_path / "made.json"
        made.write_text(out1)
        code, out, _ = run(capsys, ["braid-census", "--braid", str(made)])
        assert code == 0
        counts = json.loads(out)["per_class_counts"]
        assert any(c["class"] == [1, 0] and c["count"] >= 1 for c in counts)

    def test_targets_exceed_rank_exit(self, capsys, tmp_path):
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps([{"class": [0, 0], "count": 4}]))
        code, _, err = run(capsys, ["braid-make", "--matrix=-1,0;0,-1",
                                    "--rank", "2", "--targets", str(targets)])
        assert code == 1
        assert json.loads(err)["error"] == "targets_exceed_rank"


class TestNumericalLayer:
    def test_vortex_report(self, capsys):
        code, out, _ = run(capsys, [
            "vortex", "--holonomies", "0.13,-0.21;-0.32,0.05",
            "--grid", "16", "--modulus", "0.2", "1.0"])
        assert code == 0
        report = json.loads(out)
        assert report["moment_residual"] < 1e-10
        assert abs(report["phi_l2_sq"] - 8 * 3.14159265) < 1e-4

    def test_transport_monodromy(self, capsys, braid_file):
        code, out, _ = run(capsys, [
            "transport", "--braid", braid_file, "--tsteps", "120",
            "--grid", "16", "--modulus", "0.2", "1.0"])
        assert code == 0
        report = json.loads(out)
        assert report["match"] is True
        assert report["permutation"] == [0, 1]

    def test_transport_out_reuses_strand_traces(self, capsys, tmp_path,
                                                monkeypatch):
        """The --out trace is strand 0's run from the monodromy, so each
        strand is transported exactly once."""
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps([{"class": [0, 1], "count": 1},
                                       {"class": [1, 0], "count": 1}]))
        b = str(tmp_path / "b.json")
        assert main(["braid-make", "--matrix=-1,0;0,-1", "--rank", "2",
                     "--targets", str(targets), "--out", b]) == 0
        original = adiabat.transport.transport
        runs = []

        def counting(curve, family, start, *args, **kwargs):
            trace = original(curve, family, start, *args, **kwargs)
            runs.append((start.k, trace))
            return trace

        # callers look the function up in their own module
        for mod in (adiabat.transport, adiabat.cli):
            monkeypatch.setattr(mod, "transport", counting, raising=False)
        out = tmp_path / "tr.jsonl"
        code, _, _ = run(capsys, ["transport", "--braid", b, "--grid", "8",
                                  "--tsteps", "40", "--out", str(out)])
        assert code == 0
        assert len(runs) == 2
        last = strict_json(out.read_text().splitlines()[-1])
        strand0 = next(trace for k, trace in runs if k == 0)
        assert last["t"] == 1.0
        assert last["holonomy"] == [float(x)
                                    for x in strand0.final.holonomy]

    def test_newton_without_fixed_strand_exit(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(odd_winding_braid().to_json())
        code, _, err = run(capsys, ["newton", "--braid", str(path),
                                    "--grid", "8", "--slices", "8"])
        assert code == 1
        assert strict_json(err)["error"] == "periodicity_mismatch"

    def test_check_identities(self, capsys, braid_file):
        code, out, _ = run(capsys, [
            "check-identities", "--braid", braid_file, "--tsteps", "48",
            "--slices", "12", "--samples", "4", "--grid", "12",
            "--modulus", "0.2", "1.0"])
        assert code == 0
        report = json.loads(out)
        # piecewise-linear braid paths limit t-smoothness, so only sanity
        # bounds here; tight thresholds are checked on smooth families
        for key in ("identity0", "identity1", "identity2"):
            assert 0 <= report[key] < 1.0
