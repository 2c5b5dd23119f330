"""Command-line interface tests: spec parsing, exit codes, and
deterministic JSON reports."""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from padic_dynamics import analysis, cli
from padic_dynamics.padic import PAdic, PrecisionContext

from test_counterexample import no_derived_views


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# map spec strings
# ---------------------------------------------------------------------------

def test_parse_map_spec_plain():
    name, params = cli.parse_map_spec("shift_zp")
    assert name == "shift_zp" and params == {}


def test_parse_map_spec_with_padic_literals():
    # digit commas inside p-adic literals must not split parameters
    name, params = cli.parse_map_spec("affine(v=p:3;u:1;d:1, w=p:3;u:0;d:1,2)")
    assert name == "affine"
    assert params["v"] == PAdic(3, 1, (1,))
    assert params["w"] == PAdic(3, 0, (1, 2))


def test_parse_map_spec_ints_and_strings():
    name, params = cli.parse_map_spec("scaled_isometry(m=2, iso=alphabet, seed=9)")
    assert params == {"m": 2, "iso": "alphabet", "seed": 9}


def test_parse_map_spec_rejects_garbage():
    with pytest.raises(Exception):
        cli.parse_map_spec("123bad(")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_shadow_report_and_determinism(capsys):
    argv = ["shadow", "--p", "3", "--digits", "8", "--map", "shift_zp",
            "--delta", "p^-3", "--length", "4", "--orbits", "4",
            "--seed", "5", "--oracle"]
    code1, rep1 = run(capsys, argv)
    code2, rep2 = run(capsys, argv)
    assert code1 == code2 == 0
    assert rep1 == rep2                         # seeded => bit-identical
    assert rep1["summary"]["ok"] is True
    assert len(rep1["records"]) == 4
    for rec in rep1["records"]:
        assert rec["bound_ok"] and rec["oracle_agrees"]
        assert rec["oracle_agree_digits"] == 8 - 4
    assert rep1["config"]["prng"].startswith("random.Random")


def test_shadow_oracle_with_no_digits_to_compare_exits_two(capsys):
    # 12 steps of the shift lose all 10 digits, so the solver and oracle
    # points would be compared on nothing
    code, rep = run(capsys, ["shadow", "--p", "3", "--digits", "10",
                             "--map", "shift_zp", "--delta", "p^-3",
                             "--length", "12", "--orbits", "1", "--oracle"])
    assert code == 2
    assert "compare -2 digits" in rep["message"]


def test_shadow_zero_delta_exits_two(capsys):
    # a pseudo-orbit bound of 0 leaves no error to draw
    code, rep = run(capsys, ["shadow", "--p", "3", "--digits", "8",
                             "--delta", "0", "--orbits", "1"])
    assert code == 2
    assert rep["error"] == "DeltaTooSmall"


def test_shadow_oracle_accepts_tied_best_points(capsys):
    # after one step the orbit pins few digits, so many residues shadow
    # equally well; the solver point must match the oracle's error, not
    # its (smallest) residue
    code, rep = run(capsys, ["shadow", "--p", "3", "--digits", "10",
                             "--map", "shift_zp", "--delta", "p^-4",
                             "--length", "1", "--orbits", "10", "--oracle"])
    assert code == 0 and rep["summary"]["ok"]
    for rec in rep["records"]:
        assert rec["oracle_agrees"]
        assert rec["oracle_error"] == rec["achieved_bound"]


def test_shadow_furno_map(capsys):
    code, rep = run(capsys, ["shadow", "--p", "2", "--digits", "8",
                             "--map", "furno(k=2, seed=3)",
                             "--delta", "p^-3", "--length", "8",
                             "--orbits", "3"])
    assert code == 0 and rep["summary"]["ok"]


def test_conjugate_thm1(capsys):
    code, rep = run(capsys, ["conjugate", "--kind", "thm1", "--p", "3",
                             "--digits", "6", "--map", "shift_zp",
                             "--delta", "p^-2", "--depth", "4",
                             "--count", "3"])
    assert code == 0
    assert all(r["injective"] and r["round_trip_ok"] for r in rep["records"])
    assert all(r["round_trip_digits"] == 4 for r in rep["records"])


def test_conjugate_thm1_depth_beyond_certified_digits_exits_two(capsys):
    # the shift loses one digit, so a defect of p^-6 is out of reach at
    # 6 digits
    code, rep = run(capsys, ["conjugate", "--kind", "thm1", "--p", "3",
                             "--digits", "6", "--map", "shift_zp",
                             "--delta", "p^-2", "--depth", "6",
                             "--count", "1"])
    assert code == 2
    assert "exceeds 5" in rep["message"]


def test_conjugate_thm3(capsys):
    code, rep = run(capsys, ["conjugate", "--kind", "thm3", "--p", "3",
                             "--digits", "6", "--map", "affine(v=3, w=1)",
                             "--delta", "p^-3", "--depth", "6",
                             "--count", "3"])
    assert code == 0
    assert all(r["max_defect"] == "0" and r["bijective"]
               for r in rep["records"])


def test_conjugate_homogeneity(capsys):
    code, rep = run(capsys, ["conjugate", "--kind", "homogeneity", "--p", "3",
                             "--digits", "5", "--delta", "p^-2",
                             "--count", "5"])
    assert code == 0
    assert all(r["matched"] for r in rep["records"])


@pytest.mark.parametrize("delta", ["0", "p^-7", "p^-9"])
def test_conjugate_homogeneity_without_room_to_move_exits_two(capsys, delta):
    # at 8 digits a delta of p^-7 or below leaves every z equal to its y
    code, rep = run(capsys, ["conjugate", "--kind", "homogeneity", "--p", "3",
                             "--digits", "8", "--delta", delta])
    assert code == 2
    assert rep["error"] == "DeltaTooSmall"


@pytest.mark.parametrize("delta", ["p^2", "p^-6"])
def test_conjugate_homogeneity_moves_points(capsys, delta):
    # deltas above 1 admit every z; every accepted delta moves some y
    code, rep = run(capsys, ["conjugate", "--kind", "homogeneity", "--p", "3",
                             "--digits", "8", "--delta", delta])
    assert code == 0 and rep["summary"]["ok"]
    assert all(r["matched"] for r in rep["records"])
    assert any(r["closeness"] != "0" for r in rep["records"])


def test_analyze_multiple_checks(capsys):
    code, rep = run(capsys, ["analyze", "--p", "2", "--digits", "8",
                             "--map", "example2_R",
                             "--checks", "lipschitz,openness"])
    assert code == 0
    assert rep["records"]["openness"]["rho"] == "none"
    assert rep["records"]["lipschitz"]["exhaustive"] is True


def test_analyze_scaling_reports_sampling(capsys):
    # 3^5 residues give 29,403 pairs and 3^8 give 21.5 million: the
    # profile covers all of them in both contexts
    for digits in ("5", "8"):
        code, rep = run(capsys, ["analyze", "--p", "3", "--digits", digits,
                                 "--map", "affine(v=3, w=1)",
                                 "--checks", "scaling"])
        assert code == 0
        assert rep["records"]["scaling"]["consistent"] is True
        assert rep["records"]["scaling"]["exhaustive"] is True


def test_analyze_locally_scaling(capsys):
    code, rep = run(capsys, ["analyze", "--p", "2", "--digits", "8",
                             "--map", "furno(k=2, seed=1)",
                             "--checks", "locally_scaling",
                             "--k", "2", "--m", "-2"])
    assert code == 0
    assert rep["records"]["locally_scaling"]["ok"] is True


def test_analyze_locally_scaling_and_expansivity_report_their_pairs(capsys):
    code, rep = run(capsys, ["analyze", "--p", "3", "--digits", "8",
                             "--map", "affine(v=3, w=1)",
                             "--checks", "locally_scaling,expansivity",
                             "--k", "0", "--m", "1", "--horizon", "4"])
    assert code == 0
    pairs = 3 ** 8 * (3 ** 8 - 1) // 2
    assert rep["records"]["locally_scaling"] == {
        "k": 0, "m": 1, "ok": True, "exhaustive": True, "pairs": pairs,
        "witness": None}
    # the contraction never separates the closest pairs
    assert rep["records"]["expansivity"] == {
        "constant": "p^-7", "horizon": 4, "exhaustive": True,
        "pairs": pairs, "witness": [0, 3 ** 7]}


def test_analyze_reports_the_library_witnesses(capsys):
    # the shift fails every check that has a witness, so each is a pair
    argv = ["analyze", "--p", "3", "--digits", "5", "--map", "shift_zp",
            "--checks", "lipschitz,scaling,openness,expansivity,"
            "locally_scaling", "--k", "1", "--m", "1", "--horizon", "3"]
    code, rep = run(capsys, argv)
    assert code == 1
    f, _ = cli.build_map("shift_zp", PrecisionContext(3, 5))
    est = analysis.estimate_lipschitz(f)
    prof = analysis.scaling_profile(f)
    _, expansive = analysis.expansivity_constant(f, 3)
    _, failing = analysis.check_locally_scaling(f, 1, 1)
    records = rep["records"]
    assert records["lipschitz"]["witness_low"] == list(est.witness_low)
    assert records["lipschitz"]["witness_high"] == list(est.witness_high)
    assert records["scaling"]["witness"] == list(prof.witness)
    assert records["expansivity"]["witness"] == list(expansive)
    assert records["locally_scaling"]["witness"] == list(failing)
    assert "witness" not in records["openness"]
    # a passing check and a consistent profile report no witness
    code, rep = run(capsys, ["analyze", "--p", "3", "--digits", "5",
                             "--map", "affine(v=3, w=1)",
                             "--checks", "scaling,locally_scaling",
                             "--k", "0", "--m", "1"])
    assert code == 0
    assert rep["records"]["scaling"]["witness"] is None
    assert rep["records"]["locally_scaling"]["witness"] is None


def test_analyze_failure_exits_one(capsys):
    # the shift has no single-valued scaling profile at distance 1
    code, rep = run(capsys, ["analyze", "--p", "3", "--digits", "6",
                             "--map", "shift_zp", "--checks", "scaling"])
    assert code == 1
    assert rep["summary"]["ok"] is False


def test_analyze_takes_no_seed(capsys):
    # the scans are exhaustive and draw nothing at random
    argv = ["analyze", "--p", "3", "--digits", "5", "--map", "shift_zp"]
    code, rep = run(capsys, argv)
    assert code == 0
    assert "seed" not in rep["config"] and "prng" not in rep["config"]
    assert cli.main(argv + ["--seed", "1"]) == 2


def test_bad_map_name_exits_two(capsys):
    code, rep = run(capsys, ["analyze", "--p", "3", "--digits", "6",
                             "--map", "warp_drive", "--checks", "lipschitz"])
    assert code == 2
    assert rep["error"] == "UnknownMap"


@pytest.mark.parametrize("window", ["1", "a:b", "1:2:3"])
def test_bad_window_exits_two(capsys, window):
    code, rep = run(capsys, ["analyze", "--p", "3", "--digits", "4",
                             "--map", "shift_qp", "--window", window])
    assert code == 2
    assert rep["error"] == "PadicDynamicsError"
    assert "--window" in rep["message"]


def test_counterexample_command(capsys):
    code, rep = run(capsys, ["counterexample", "--p", "3", "--depth", "7",
                             "--delta", "p^-4", "--eps", "p^-1"])
    assert code == 0
    assert rep["records"]["even"]["shadowed"] is False
    assert rep["records"]["full_control"]["shadowed"] is True


def test_counterexample_command_derives_no_chart_tree(capsys, monkeypatch):
    """Neither chart of `padyn counterexample` derives its leaves or its
    tree."""
    argv = ["counterexample", "--p", "3", "--depth", "7", "--delta", "p^-4",
            "--eps", "p^-1"]
    want = run(capsys, argv)
    with monkeypatch.context() as m:
        no_derived_views(m)
        assert run(capsys, argv) == want


# SHA-256 of the default `padyn counterexample` stdout, pinned before the
# even chart's leaf words became integer codes: the report must not move.
COUNTEREXAMPLE_REPORT_DIGEST = (
    "020f84c4c0cc54c0cc1ef057b0f412357d00383bb07b38397b441e582f1b81ea")


def test_counterexample_report_is_pinned(capsys):
    assert cli.main(["counterexample"]) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == COUNTEREXAMPLE_REPORT_DIGEST


def test_suite_quick(capsys):
    code, rep = run(capsys, ["suite", "--quick"])
    assert code == 0
    assert rep["summary"]["ok"] is True
    assert "counterexample" not in rep["records"]


def test_out_file_written(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, rep = run(capsys, ["shadow", "--p", "2", "--digits", "6",
                             "--orbits", "1", "--length", "5",
                             "--map", "shift_zp", "--out", str(path)])
    assert code == 0
    assert json.loads(path.read_text()) == rep


def _readme_commands():
    """The padyn command lines of the README's command-line block, with
    continuation lines joined and the program name dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("padyn ")]


def test_readme_commands_exit_zero(capsys):
    commands = _readme_commands()
    assert [argv[0] for argv in commands] == [
        "shadow", "conjugate", "conjugate", "analyze", "counterexample",
        "suite"]
    for argv in commands:
        code, rep = run(capsys, argv)
        assert code == 0, argv
        assert rep["summary"]["ok"] is True
