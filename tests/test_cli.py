"""Command-line interface: subcommands, formats, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adiabat.braid
import adiabat.cli
import adiabat.transport
import adiabat.zlattice
from adiabat.cli import main, parse_holonomies, parse_matrix
from adiabat.errors import Divergence
from adiabat.monopole import FORCING_MAX, GMRES_TOL
from adiabat.vortexfield import FlatCurve, vortex_solve

from tests.test_braid import even_winding_braid, odd_winding_braid

# the directory the package under test is imported from
SRC = os.path.dirname(os.path.dirname(adiabat.cli.__file__))


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
        """Usage errors exit 1 with one JSON object on stderr, and so does
        a flag that the subcommand does not read."""
        for argv in (["count", "--rank", "1", "--degree", "2"],
                     ["braid-make", "--matrix=-1,0;0,-1", "--rank", "2"],
                     ["count", "--matrix", "2,1;1,1", "--rank", "x",
                      "--degree", "2"],
                     [],
                     ["braid-make", "--matrix=-1,0;0,-1", "--rank", "2",
                      "--targets", "t.json", "--format", "csv"],
                     ["vortex", "--holonomies", "0.1,0.2", "--format", "csv"],
                     ["transport", "--braid", "b.json", "--format", "json"],
                     ["newton", "--braid", "b.json", "--format", "json"],
                     ["check-identities", "--braid", "b.json", "--format",
                      "json"],
                     ["check-identities", "--braid", "b.json", "--out", "F"],
                     ["vortex", "--holonomies", "0.1,0.2", "--tolerance",
                      "5"]):
            code, out, err = run(capsys, argv)
            assert code == 1
            assert out == ""
            assert strict_json(err)["error"] == "ValueError"

    @pytest.mark.parametrize("argv", [["--help"], ["newton", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "usage" in out

    @pytest.mark.parametrize("argv, code", [
        (["vortex", "--holonomies", "0.13,-0.21;-0.32,0.05"], 0),
        (["vortex", "--holonomies", "0.1"], 1),
        (["vortex", "--holonomies", "nan,0.2"], 1),
        (["vortex", "--holonomies", "0.1,0.2;0.3"], 1),
        (["vortex", "--holonomies", "0.1,inf"], 1),
        (["vortex", "--holonomies", "0.1,0.2", "--modulus", "0", "inf"], 1),
        (["vortex", "--holonomies", "0.1,0.2", "--tau", "nan"], 1),
        (["newton", "--braid", "{braid}", "--eps", "0.2,nan"], 1),
        (["vortex", "--holonomies", "0.1,0.2", "--tau", "1e4"], 0),
        (["transport", "--braid", "{braid}", "--grid", "8", "--tsteps", "0"],
         1),
        (["transport", "--braid", "{braid}", "--grid", "8", "--tsteps", "20",
          "--tolerance", "-1"], 1),
        (["newton", "--braid", "{braid}", "--grid", "8", "--slices", "0"], 1),
        (["check-identities", "--braid", "{braid}", "--grid", "8",
          "--samples", "0"], 1),
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


    @pytest.mark.parametrize("targets", [
        [{"class": [0, 1], "count": 1}, {"class": [0, 1], "count": 1}],
        [{"class": [0, 1], "count": 1}, {"class": [2, 1], "count": 1}],
    ])
    def test_targets_in_one_class_add_up(self, capsys, tmp_path, targets):
        """A repeated class, or two classes equal mod im(1 - f*), asks for
        the sum of their counts."""
        path = tmp_path / "targets.json"
        path.write_text(json.dumps(targets))
        made = tmp_path / "made.json"
        code, _, _ = run(capsys, ["braid-make", "--matrix=-1,0;0,-1",
                                  "--rank", "2", "--targets", str(path),
                                  "--out", str(made)])
        assert code == 0
        code, out, _ = run(capsys, ["braid-census", "--braid", str(made)])
        assert code == 0
        assert json.loads(out)["per_class_counts"] == [
            {"class": [0, 1], "count": 2}]

    def test_exact_layer_builds_each_smith_form_once(self, capsys, tmp_path,
                                                     monkeypatch):
        """coker(1 - f*) is built once per mapping class: braid-make needs
        it and the torsion points, braid-census needs only it."""
        calls = []
        snf = adiabat.zlattice.smith_normal_form
        monkeypatch.setattr(adiabat.zlattice, "smith_normal_form",
                            lambda A: calls.append(A) or snf(A))
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps([{"class": [0, 1], "count": 1},
                                       {"class": [1, 0], "count": 1}]))
        made = tmp_path / "made.json"
        assert run(capsys, ["braid-make", "--matrix=-1,0;0,-1", "--rank", "3",
                            "--targets", str(targets), "--out",
                            str(made)])[0] == 0
        assert len(calls) == 1
        calls.clear()
        assert run(capsys, ["braid-census", "--braid", str(made)])[0] == 0
        assert len(calls) <= 1


def _braid_text(**fields):
    """The even-winding braid file with some top-level fields replaced."""
    data = json.loads(even_winding_braid().to_json())
    data.update(fields)
    return json.dumps(data)


_S1 = [["0", "3/4", "0"], ["1/2", "1/2", "-1/4"], ["1", "1/4", "0"]]


class TestMalformedExactInput:
    """Malformed braid and target files exit 1 with one strict-JSON error
    object on stderr, not a traceback, and are never accepted silently."""

    def check(self, capsys, argv, error):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert strict_json(err)["error"] == error

    @pytest.mark.parametrize("text", [
        pytest.param(_braid_text(strands=5), id="strands 5"),
        pytest.param("[" + _braid_text() + "]", id="top-level list"),
        pytest.param(_braid_text(strands=[
            [["0", "1/4", "0"], ["1/2", "1/0", "1/4"], ["1", "3/4", "0"]],
            _S1]), id="breakpoint 1/0"),
        pytest.param(_braid_text(strands=[
            [["0", "1/4", "0"], ["1/2", "1/2"], ["1", "3/4", "0"]], _S1]),
            id="two-item breakpoint"),
        pytest.param(_braid_text(strands=[[], _S1]), id="empty strand"),
        pytest.param(_braid_text(strands=[[["0", "1/4", "0"]], _S1]),
                     id="one-breakpoint strand"),
        pytest.param(_braid_text(fstar=[[-1.5, 0], [0, -1]]), id="float f*"),
        pytest.param(_braid_text(closing_permutation=[0.0, 1.0]),
                     id="float permutation"),
        pytest.param(_braid_text(N=0, closing_permutation=[], strands=[]),
                     id="N 0"),
    ])
    def test_braid_file(self, capsys, tmp_path, text):
        path = tmp_path / "b.json"
        path.write_text(text)
        self.check(capsys, ["braid-census", "--braid", str(path)],
                   "ValueError")

    @pytest.mark.parametrize("targets, rank, error", [
        pytest.param({"class": [0, 1], "count": 1}, "2", "ValueError",
                     id="object"),
        pytest.param([[0, 1]], "2", "ValueError", id="list of non-objects"),
        pytest.param([{"class": [0, 1], "count": 1.5}], "2", "ValueError",
                     id="count 1.5"),
        pytest.param([{"class": [0.0, 1.0], "count": 1}], "2", "ValueError",
                     id="float class"),
        pytest.param([{"class": [0, 1], "count": 2},
                      {"class": [0, 1], "count": -1}], "2", "ValueError",
                     id="negative count"),
        pytest.param([], "0", "ValueError", id="rank 0"),
        pytest.param([], "-1", "ValueError", id="rank -1"),
        pytest.param([{"class": [0, 1, 0], "count": 1}], "2",
                     "unrealizable_class", id="class of wrong length"),
    ])
    def test_targets_and_rank(self, capsys, tmp_path, targets, rank, error):
        path = tmp_path / "targets.json"
        path.write_text(json.dumps(targets))
        self.check(capsys, ["braid-make", "--matrix=-1,0;0,-1", "--rank",
                            rank, "--targets", str(path)], error)

    def test_genus_two_refused_up_front(self, capsys, tmp_path,
                                        monkeypatch):
        """Braids live on genus-1 mapping tori: braid-make refuses genus 2
        before it computes a fixed point."""
        calls = []
        monkeypatch.setattr(adiabat.braid, "jacobian_fixed_points",
                            lambda mc: calls.append(mc))
        path = tmp_path / "targets.json"
        path.write_text(json.dumps([{"class": [0, 0, 0, 0], "count": 1}]))
        self.check(capsys, ["braid-make", "--genus", "2", "--matrix",
                            "0,0,1,0;0,0,0,1;-1,0,-1,0;0,-1,0,0", "--rank",
                            "1", "--targets", str(path)],
                   "unsupported_genus")
        assert calls == []


class TestNumericalLayer:
    def test_vortex_report(self, capsys):
        code, out, _ = run(capsys, [
            "vortex", "--holonomies", "0.13,-0.21;-0.32,0.05",
            "--grid", "16", "--modulus", "0.2", "1.0"])
        assert code == 0
        report = json.loads(out)
        assert report["moment_residual"] < 1e-10
        assert abs(report["phi_l2_sq"] - 8 * 3.14159265) < 1e-4

    def test_vortex_sidecar_stores_twists(self, capsys, tmp_path):
        hol = "0.13,-0.21;-0.32,0.05"
        prefix = str(tmp_path / "v")
        code, _, _ = run(capsys, ["vortex", "--holonomies", hol, "--grid",
                                  "8", "--out", prefix])
        assert code == 0
        cfg, _ = vortex_solve(FlatCurve(1j, 8), parse_holonomies(hol), 0,
                              2.0)
        for name in ("phi0", "phi1", "alpha"):
            sidecar = strict_json(
                (tmp_path / f"v.{name}.f64.json").read_text())
            assert sidecar["twists"] == cfg.twists.tolist()
            assert "holonomies" not in sidecar

    def test_transport_monodromy(self, capsys, braid_file):
        code, out, _ = run(capsys, [
            "transport", "--braid", braid_file, "--tsteps", "120",
            "--grid", "16", "--modulus", "0.2", "1.0"])
        assert code == 0
        report = json.loads(out)
        assert report["match"] is True
        assert report["permutation"] == [0, 1]

    @pytest.fixture()
    def readme_braid(self, tmp_path):
        """The README braid: two constant strands 0.5 apart."""
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps([{"class": [0, 1], "count": 1},
                                       {"class": [1, 0], "count": 1}]))
        b = str(tmp_path / "b.json")
        assert main(["braid-make", "--matrix=-1,0;0,-1", "--rank", "2",
                     "--targets", str(targets), "--out", b]) == 0
        return b

    def test_transport_out_reuses_strand_traces(self, capsys, tmp_path,
                                                monkeypatch, readme_braid):
        """The --out trace is strand 0's states from the one stacked run
        of all strands, so each strand is transported exactly once."""
        original = adiabat.transport.transport_stack
        runs = []

        def counting(curve, family, starts, *args, **kwargs):
            finals = []
            runs.append(([s.k for s in starts], finals))
            for states in original(curve, family, starts, *args, **kwargs):
                finals[:] = states
                yield states

        # callers look the function up in their own module
        for mod in (adiabat.transport, adiabat.cli):
            monkeypatch.setattr(mod, "transport_stack", counting)
        out = tmp_path / "tr.jsonl"
        code, _, _ = run(capsys, ["transport", "--braid", readme_braid,
                                  "--grid", "8", "--tsteps", "40", "--out",
                                  str(out)])
        assert code == 0
        assert [ks for ks, _ in runs] == [[0, 1]]
        last = strict_json(out.read_text().splitlines()[-1])
        strand0 = runs[0][1][0]
        assert last["t"] == strand0.t == 1.0
        assert last["holonomy"] == [float(x) for x in strand0.holonomy]

    def test_transport_few_steps_matches(self, capsys, readme_braid):
        """The matching tolerance 10 / steps^2 is capped at half the strand
        separation; uncapped, 3 steps matched both strands."""
        code, out, _ = run(capsys, ["transport", "--braid", readme_braid,
                                    "--grid", "8", "--tsteps", "3"])
        assert code == 0
        assert strict_json(out)["match"] is True

    def test_newton_without_fixed_strand_exit(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(odd_winding_braid().to_json())
        code, _, err = run(capsys, ["newton", "--braid", str(path),
                                    "--grid", "8", "--slices", "8"])
        assert code == 1
        assert strict_json(err)["error"] == "periodicity_mismatch"

    @pytest.mark.parametrize("matrix, rank, target, count", [
        ("-1,0;0,-1", 2, [0, 1], 2),
        ("-1,0;0,-1", 3, [1, 1], 1),
        ("0,-1;1,0", 2, [0, 0], 2),
        ("0,-1;1,0", 3, [0, 1], 1),
        ("0,-1;1,1", 2, [0, 0], 2),
    ])
    def test_made_braids_refine(self, capsys, tmp_path, matrix, rank, target,
                                count):
        """Every braid braid-make emits over a finite-order f* passes newton
        and check-identities on the curve f* preserves."""
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps([{"class": target, "count": count}]))
        b = str(tmp_path / "b.json")
        assert main(["braid-make", f"--matrix={matrix}", "--rank", str(rank),
                     "--targets", str(targets), "--out", b]) == 0
        argv = ["--braid", b, "--grid", "8", "--slices", "8"]
        code, out, err = run(capsys, ["newton", *argv, "--eps", "0.2"])
        assert code == 0, err
        log = strict_json(out)[0]["iterations"]
        assert log[-1]["residual_0_2_eps"] < 1e-9
        code, out, err = run(capsys, ["check-identities", *argv])
        assert code == 0, err
        report = strict_json(out)
        assert report["identity0"] < 1e-6
        assert report["identity1"] < 1e-6

    @pytest.mark.parametrize("matrix, targets, command, slices", [
        ("-1,0;0,-1", [([0, 1], 1), ([1, 0], 1)], "newton", 6),
        ("-1,0;0,-1", [([0, 1], 2)], "check-identities", 5),
        ("0,-1;1,0", [([0, 0], 2)], "newton", 7),
    ])
    def test_slice_count_not_dividing_the_steps(self, capsys, tmp_path,
                                                matrix, targets, command,
                                                slices):
        """The transport step count is rounded up to a multiple of the
        slice count and of the breakpoints' denominator, so slice times
        i/m off the default 128-step grid are sampled (the README braid,
        the -1 braid whose moving strand breaks at t = 1/2, and an order-4
        braid)."""
        path = tmp_path / "targets.json"
        path.write_text(json.dumps([{"class": c, "count": k}
                                    for c, k in targets]))
        b = str(tmp_path / "b.json")
        assert main(["braid-make", f"--matrix={matrix}", "--rank", "2",
                     "--targets", str(path), "--out", b]) == 0
        argv = [command, "--braid", b, "--grid", "8", "--slices", str(slices)]
        if command == "newton":
            argv += ["--eps", "0.2"]
        code, out, err = run(capsys, argv)
        assert code == 0, err
        if command == "newton":
            log = strict_json(out)[0]["iterations"]
            assert log[-1]["residual_0_2_eps"] < 1e-9
        else:
            report = strict_json(out)
            assert report["identity0"] < 1e-6
            assert report["identity1"] < 1e-6

    def test_hyperbolic_braid_has_no_invariant_structure(self, capsys,
                                                         tmp_path):
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps([{"class": [0, 0], "count": 1}]))
        b = str(tmp_path / "b.json")
        assert main(["braid-make", "--matrix", "2,1;1,1", "--rank", "2",
                     "--targets", str(targets), "--out", b]) == 0
        argv = ["--braid", b, "--grid", "8", "--slices", "8"]
        for extra in ([], ["--modulus", "0.2", "1.0"]):
            for command in ("newton", "check-identities"):
                code, out, err = run(capsys, [command, *argv, *extra])
                assert code == 1
                assert out == ""
                payload = strict_json(err)
                assert payload["error"] == "periodicity_mismatch"
                assert "hyperbolic" in payload["message"]
        # transport needs no f-invariant structure
        code, out, _ = run(capsys, ["transport", "--braid", b, "--grid", "8",
                                    "--tsteps", "20"])
        assert code == 0
        assert strict_json(out)["match"] is True

    @pytest.mark.parametrize("slices", [1, 2, 3, 4])
    def test_identities_at_round_off_on_few_slices(self, capsys,
                                                   readme_braid, slices):
        """On m <= 4 slices the t-Nyquist mode |k| = m / 2 lies inside the
        random tangents' band unless it is cut; with it, identity2 read
        0.31, 0.23, 0.16 and 0.11."""
        code, out, err = run(capsys, ["check-identities", "--braid",
                                      readme_braid, "--grid", "8",
                                      "--slices", str(slices)])
        assert code == 0, err
        report = strict_json(out)
        assert report["identity1"] < 1e-12
        assert report["identity2"] < 1e-12

    @pytest.mark.parametrize("eps", ["0", "1e-300", "1e-160", "1e300",
                                     "1e80", "0.2,0"])
    @pytest.mark.filterwarnings("error")
    def test_newton_refuses_eps_out_of_range(self, capsys, braid_file, eps):
        """An eps whose square or fourth power, or their inverse, rounds to
        0 or inf exits 1 with strict JSON, before any refinement."""
        code, out, err = run(capsys, ["newton", "--braid", braid_file,
                                      "--grid", "8", "--slices", "4",
                                      f"--eps={eps}"])
        assert (code, out) == (1, "")
        payload = strict_json(err)
        assert payload["error"] == "ValueError"
        assert "eps must be positive" in payload["message"]

    def test_newton_log_carries_gmres_counters(self, capsys, braid_file):
        code, out, _ = run(capsys, ["newton", "--braid", braid_file,
                                    "--grid", "8", "--slices", "8",
                                    "--eps", "0.2"])
        assert code == 0
        log = strict_json(out)[0]["iterations"]
        assert len(log) > 1
        for entry in log[:-1]:
            assert GMRES_TOL <= entry["gmres_rtol"] <= FORCING_MAX
            assert entry["gmres_products"] > 0
        assert log[-1]["gmres_rtol"] == 0.0
        assert log[-1]["gmres_products"] == 0

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


# A fresh interpreter runs each argument vector through ``cli.main`` and
# prints, per vector, the exit code and whether scipy.sparse is loaded.
SCIPY_PROBE = """
import contextlib, io, json, sys
import adiabat.cli

def probe(argv):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = adiabat.cli.main(argv)
    return [code, "scipy.sparse" in sys.modules]

print(json.dumps([probe(json.loads(a)) for a in sys.argv[1:]]))
"""


def test_no_command_loads_scipy(tmp_path, braid_file):
    """No command loads scipy.sparse: not the README command sequence at
    its own sizes, whose newton converges at k = 0, not a refused eps, and
    not a newton that takes GMRES steps."""
    targets, b = str(tmp_path / "targets.json"), str(tmp_path / "b.json")
    with open(targets, "w") as fh:
        json.dump([{"class": [0, 1], "count": 1},
                   {"class": [1, 0], "count": 1}], fh)
    readme = [
        ["count", "--matrix", "2,1;1,1", "--rank", "2", "--degree", "3"],
        ["fix", "--matrix=-1,0;0,-1", "--format", "csv"],
        ["braid-make", "--matrix=-1,0;0,-1", "--rank", "2", "--targets",
         targets, "--out", b],
        ["braid-census", "--braid", b],
        ["vortex", "--holonomies", "0.13,-0.21;-0.32,0.05", "--grid", "32",
         "--tau", "2.0"],
        ["transport", "--braid", b, "--grid", "16", "--tsteps", "200",
         "--out", str(tmp_path / "tr.jsonl")],
        ["newton", "--braid", b, "--grid", "12", "--slices", "16", "--eps",
         "0.2"],
        ["check-identities", "--braid", b, "--grid", "16", "--slices", "32"],
    ]
    stepping = ["newton", "--braid", braid_file, "--grid", "8", "--slices",
                "8", "--eps", "0.2"]
    argvs = readme + [stepping[:-1] + ["0"], stepping]
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE,
                           *map(json.dumps, argvs)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == \
        [[0, False]] * len(readme) + [[1, False], [0, False]]


# -- random argument vectors for the cheap subcommands ----------------------

def _pairs(elements, max_rows):
    """Semicolon-separated "a,b" rows, as --matrix and --holonomies read."""
    return st.lists(st.lists(elements, min_size=2, max_size=2), min_size=1,
                    max_size=max_rows).map(lambda rows: ";".join(
                        ",".join(str(x) for x in row) for row in rows))


JUNK = st.text(alphabet="0123456789,;-.exn ", max_size=10)
# elliptic, parabolic and hyperbolic elements of SL(2, Z), then any
# integer pairs, then text
MATRIX = st.one_of(st.sampled_from(["-1,0;0,-1", "0,-1;1,0", "0,-1;1,1",
                                    "1,1;0,1", "1,0;0,1", "2,1;1,1",
                                    "3,2;1,1", "-2,1;-1,0"]),
                   _pairs(st.integers(-3, 3), 2), JUNK)
INTEGER = st.one_of(st.integers(-2, 5).map(str),
                    st.sampled_from(["x", "", "1.5", "1e9"]))
REAL = st.one_of(st.floats(-3.0, 3.0).map(repr),
                 st.sampled_from(["nan", "inf", "-inf", "x", "0", "1e300"]))
FORMAT = st.sampled_from(["json", "csv", "xml"])
MATRIX_FLAGS = {"genus": st.sampled_from(["1", "2", "0", "-1"]),
                "format": FORMAT}


def _argv(command, required, optional):
    """[command, --flag=value, ...]: the required flags and some of the
    optional ones."""
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda flags: [command] + [f"--{k}={v}" for k, v in flags.items()])


def _cheap_argv(braid_paths):
    vortex = st.tuples(
        _argv("vortex", {"holonomies": st.one_of(
            _pairs(st.floats(-0.5, 0.5).map(repr), 3), JUNK)},
            {"component": INTEGER, "tau": REAL}),
        st.one_of(st.just([]), st.tuples(
            st.sampled_from(["0.2", "-1", "nan"]),
            st.sampled_from(["1", "0.5", "0", "-1"])).map(
                lambda m: ["--modulus", *m])))
    return st.one_of(
        _argv("count", {"matrix": MATRIX, "rank": INTEGER,
                        "degree": INTEGER}, MATRIX_FLAGS),
        _argv("fix", {"matrix": MATRIX}, MATRIX_FLAGS),
        _argv("spinc", {"matrix": MATRIX, "degree": INTEGER}, MATRIX_FLAGS),
        _argv("braid-census", {"braid": st.sampled_from(braid_paths)},
              {"format": FORMAT}),
        vortex.map(lambda t: t[0] + ["--grid=8"] + t[1]))


@pytest.fixture(scope="module")
def braid_paths(tmp_path_factory):
    """A braid file, a malformed one and a path that does not exist."""
    root = tmp_path_factory.mktemp("braids")
    good, bad = root / "braid.json", root / "bad.json"
    good.write_text(even_winding_braid().to_json())
    bad.write_text('{"genus": 1, "strands": [')
    return [str(good), str(bad), str(root / "missing.json")]


def _sl2z(bound):
    """The f* in SL(2, Z) with entries in [-bound, bound] and
    det(1 - f*) = 2 - tr f* != 0, as --matrix values."""
    span = range(-bound, bound + 1)
    return [f"{a},{b};{c},{d}" for a in span for b in span for c in span
            for d in span if a * d - b * c == 1 and a + d != 2]


def _kind(matrix):
    """finite, parabolic or hyperbolic: |tr| < 2 or f* = -1 has finite
    order, and det(1 - f*) != 0 leaves tr = -2 for the parabolic ones."""
    (a, b), (c, d) = parse_matrix(matrix).to_lists()
    if abs(a + d) < 2 or (a, b, c, d) == (-1, 0, 0, -1):
        return "finite"
    return "parabolic" if abs(a + d) == 2 else "hyperbolic"


class TestRandomArguments:
    def test_cheap_subcommands_keep_the_contract(self, braid_paths):
        """Any argument vector of count, fix, spinc, braid-census and
        vortex --grid 8 exits 0, 1 or 2; a failure writes one JSON object
        to stderr and no warning, and a JSON report is strict."""
        @given(_cheap_argv(braid_paths))
        # argparse drops the value "--"; tau = 1e300 overflows the CG
        @example(["fix", "--matrix=--"])
        @example(["vortex", "--holonomies=0.0,0.0", "--tau=1e300",
                  "--grid=8"])
        @settings(max_examples=60, deadline=None, derandomize=True)
        def check(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
            assert code in (0, 1, 2), (argv, code)
            assert not caught, (argv, [str(w.message) for w in caught])
            if code:
                assert out.getvalue() == ""
                assert isinstance(strict_json(err.getvalue()), dict)
            elif "--format=csv" in argv:
                assert out.getvalue().strip()
                assert "nan" not in out.getvalue().lower()
            else:
                strict_json(out.getvalue())

        check()

    def test_made_braids_pass_every_layer(self, tmp_path):
        """braid-make over a random f*, rank and targets drawn from the
        classes fix prints, then transport, newton and check-identities
        over a random grid, step count, slice count, moment tolerance and
        tau.  Every command exits 0, 1 or 2 with strict JSON and no
        warning, and a transport that exits 0 matches the braid's
        permutation.  Targets beyond the rank exit 1 at braid-make, and a
        grid below 8 exits 1 at every later command.  With no targets at
        rank 2 the padding is one 2-cycle, so newton and check-identities
        exit 1 for every f*, saying that no strand is fixed.  Otherwise
        they never succeed on a parabolic or hyperbolic f*, exiting 1 to
        say which, since no flat structure is f-invariant, or 2 for a
        numerical failure first; on a finite-order f* they exit 0 or 2.
        At grid 8, 32 steps, 8 slices, tolerance 1e-6 and tau 2 no command
        fails numerically: transport exits 0, and so do newton and
        check-identities on a finite-order f*."""
        targets, braid = tmp_path / "targets.json", str(tmp_path / "b.json")

        def run_json(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
            assert code in (0, 1, 2), (argv, code)
            assert not caught, (argv, [str(w.message) for w in caught])
            if code:
                assert out.getvalue() == ""
                return code, strict_json(err.getvalue())
            # braid-make --out writes nothing to stdout
            return code, strict_json(out.getvalue() or "null")

        # grid 8 first: hypothesis leans to the first value, and grid 6
        # stops every command at the grid check
        @given(st.sampled_from(_sl2z(3)), st.integers(1, 2),
               st.lists(st.integers(0, 99), min_size=0, max_size=3),
               st.sampled_from([8, 6]), st.integers(4, 48),
               st.integers(2, 8), st.sampled_from([1e-8, 1e-6, 1e-4]),
               st.floats(1.0, 4.0))
        # parabolic; order 6; order 6 with no spatial band at n = 8; no
        # strand fixed; the smallest counts, tolerance and tau
        @example("-1,1;0,-1", 1, [0], 8, 32, 8, 1e-6, 2.0)
        @example("0,-1;1,1", 2, [0, 1], 8, 32, 8, 1e-6, 2.0)
        @example("-2,-3;1,1", 1, [0], 8, 32, 8, 1e-6, 2.0)
        @example("-1,0;0,-1", 2, [], 8, 32, 8, 1e-6, 2.0)
        @example("0,-1;1,1", 2, [0, 1], 8, 4, 2, 1e-8, 1.0)
        @settings(max_examples=12, deadline=None, derandomize=True)
        def check(matrix, rank, picks, grid, tsteps, slices, tolerance, tau):
            code, rows = run_json(["fix", f"--matrix={matrix}"])
            assert code == 0
            classes = [r["torsion_class"] for r in rows]
            targets.write_text(json.dumps(
                [{"class": classes[i % len(classes)], "count": 1}
                 for i in picks]))
            code, _ = run_json(["braid-make", f"--matrix={matrix}", "--rank",
                                str(rank), "--targets", str(targets),
                                "--out", braid])
            if len(picks) > rank:
                assert code == 1
                return
            assert code == 0
            family = ["--braid", braid, f"--grid={grid}",
                      f"--tsteps={tsteps}", f"--tolerance={tolerance!r}",
                      f"--tau={tau!r}"]
            case = (matrix, rank, picks, family, slices)
            # the exit codes of a numerical failure at these arguments
            numerical = (() if (grid, tsteps, slices, tolerance, tau)
                         == (8, 32, 8, 1e-6, 2.0) else (2,))
            code, report = run_json(["transport"] + family)
            if grid < 8:
                assert code == 1, (case, report)
            else:
                assert code in (0,) + numerical, (case, report)
                if code == 0:
                    assert report["match"] is True, (case, report)
            kind = _kind(matrix)
            for command in ("newton", "check-identities"):
                code, report = run_json([command, f"--slices={slices}"]
                                        + family)
                if grid < 8:
                    assert code == 1, (case, report)
                elif rank >= 2 and not picks:
                    assert code == 1, (case, report)
                    assert report["error"] == "periodicity_mismatch"
                    assert "no strand is fixed by the closing permutation" \
                        in report["message"]
                elif kind == "finite":
                    assert code in (0,) + numerical, (case, report)
                else:
                    assert code in (1,) + numerical, (case, report)
                    if code == 1:
                        assert report["error"] == "periodicity_mismatch"
                        assert f"f* is {kind}" in report["message"]

        check()
