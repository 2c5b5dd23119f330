"""Command-line interface tests: spec parsing, exit codes, and
deterministic JSON reports."""

import argparse
import hashlib
import json
import shlex
from pathlib import Path

import pytest

from padic_dynamics import analysis, cli, conjugacy, counterexample
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


_SHIFT_QP = ["--p", "3", "--digits", "4", "--window=-2:1", "--map",
             "shift_qp"]


@pytest.mark.parametrize("argv", [
    pytest.param(["shadow", "--map", "affine(v=3)"], id="shadow"),
    pytest.param(["conjugate", "--map", "affine(v=3)"], id="conjugate"),
    pytest.param(["shadow", *_SHIFT_QP], id="shadow-shift_qp"),
    pytest.param(["conjugate", "--kind", "thm1", *_SHIFT_QP],
                 id="conjugate-shift_qp"),
])
def test_map_without_right_inverse_family_exits_two(capsys, argv):
    # affine(v=3) contracts, so no family of contracting right inverses
    # exists; thm1 used to fail on the missing family's bounds with a
    # traceback and exit 1.  R_i(x) = i + p*x inverts shift_zp, not
    # shift_qp: on a Q_p window shift_qp(R_i(x)) falls below the window
    # for i != 0, and the solver and builder used to raise WindowViolation
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 2
    assert len(out.splitlines()) == 1
    rep = json.loads(out)
    assert rep["error"] == "PadicDynamicsError"
    assert "no right-inverse family" in rep["message"]


@pytest.mark.parametrize("argv", [
    ["shadow", "--orbits", "0"],
    ["shadow", "--length", "0"],
    ["conjugate", "--count", "0"],
    ["conjugate", "--kind", "thm3", "--map", "affine(v=3, w=1)",
     "--count", "0"],
    ["conjugate", "--kind", "homogeneity", "--count", "0"],
    ["conjugate", "--depth", "-1"],
    ["conjugate", "--depth", "0"],
    ["conjugate", "--kind", "thm3", "--map", "affine(v=3, w=1)",
     "--depth", "0"],
], ids=" ".join)
def test_checks_on_nothing_exit_two(capsys, argv):
    # no records, no steps or no depth would leave every check vacuous
    code, rep = run(capsys, argv)
    assert code == 2
    assert rep["error"] == "PadicDynamicsError"
    assert "checks nothing" in rep["message"]


@pytest.mark.parametrize("horizon", ["0", "-3"])
def test_expansivity_horizon_below_one_exits_two(capsys, horizon):
    # a horizon below 1 iterates nothing, so its constant would certify no
    # separation; a check that does not read --horizon still runs
    argv = ["analyze", "--p", "3", "--digits", "4", "--map", "shift_zp",
            "--horizon", horizon]
    code = cli.main(argv + ["--checks", "lipschitz,expansivity"])
    out = capsys.readouterr().out
    assert code == 2 and len(out.splitlines()) == 1
    rep = json.loads(out)
    assert rep["error"] == "PadicDynamicsError"
    assert rep["message"].startswith(f"--horizon {horizon} checks nothing")
    code, rep = run(capsys, argv + ["--checks", "lipschitz"])
    assert code == 0 and set(rep["records"]) == {"lipschitz"}


@pytest.mark.parametrize("argv", [
    ["--p", "2", "--digits", "4", "--map", "affine(v=2)", "--k", "0",
     "--m", "9"],
    ["--p", "3", "--digits", "3", "--map", "affine(v=3)", "--k", "9",
     "--m", "1"],
], ids=" ".join)
def test_locally_scaling_with_no_pair_to_compare_exits_two(capsys, argv):
    # every level j >= k has j + m at or above the certified digits, so
    # the check used to report ok on no compared pair and exit 0
    code = cli.main(["analyze", "--checks", "locally_scaling", *argv])
    out = capsys.readouterr().out
    assert code == 2 and len(out.splitlines()) == 1
    rep = json.loads(out)
    assert rep["error"] == "BadParams"
    assert "compares no pair" in rep["message"]


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


@pytest.mark.parametrize("extra", [
    ["--map", "shift_zp"], ["--depth", "4"],
    ["--map", "warp_drive", "--depth", "99"],
], ids=" ".join)
def test_conjugate_homogeneity_refuses_map_and_depth(capsys, extra):
    # the ball swaps read neither, so a given value would name a map or a
    # depth that played no part in the report
    code = cli.main(["conjugate", "--kind", "homogeneity", "--p", "3",
                     "--digits", "5", "--count", "2", *extra])
    out = capsys.readouterr().out
    assert code == 2 and len(out.splitlines()) == 1
    rep = json.loads(out)
    assert rep["error"] == "PadicDynamicsError"
    assert rep["message"].startswith("--kind homogeneity reads no")
    assert all(a in rep["message"] for a in extra if a.startswith("--"))


def test_conjugate_config_records_what_the_kind_reads(capsys):
    base = ["conjugate", "--p", "2", "--digits", "6", "--count", "1"]
    _, rep = run(capsys, base + ["--kind", "homogeneity"])
    assert "map" not in rep["config"] and "depth" not in rep["config"]
    for kind, spec in (("thm1", "shift_zp"), ("thm3", "affine(v=2, w=1)")):
        argv = base + ["--kind", kind, "--delta", "p^-2"]
        if kind == "thm3":
            argv += ["--map", spec]
        _, rep = run(capsys, argv)
        assert rep["config"]["map"] == spec and rep["config"]["depth"] == 4


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
    assert rep["records"]["lipschitz"]["pairs"] == 256 * 255 // 2


def test_analyze_scaling_reports_sampling(capsys):
    # 3^5 residues give 29,403 pairs and 3^8 give 21.5 million: the
    # reported profile is the library's exhaustive one in both contexts
    for digits in (5, 8):
        code, rep = run(capsys, ["analyze", "--p", "3", "--digits",
                                 str(digits), "--map", "affine(v=3, w=1)",
                                 "--checks", "scaling"])
        assert code == 0
        assert rep["records"]["scaling"]["consistent"] is True
        f, _ = cli.build_map("affine(v=3, w=1)", PrecisionContext(3, digits))
        prof = analysis.scaling_profile(f)
        assert rep["records"]["scaling"]["profile"] == {
            str(k): v for k, v in prof.table.items()}


def test_analyze_locally_scaling(capsys):
    code, rep = run(capsys, ["analyze", "--p", "2", "--digits", "8",
                             "--map", "furno(k=2, seed=1)",
                             "--checks", "locally_scaling",
                             "--k", "2", "--m", "-2"])
    assert code == 0
    assert rep["records"]["locally_scaling"]["ok"] is True
    # levels 0 and 1 hold 16,384 + 8,192 of the 32,640 pairs; the check
    # compares levels 2 to 7 only, which hold 128 * (64 - 1) pairs
    assert rep["records"]["locally_scaling"]["pairs"] == 8064


def test_analyze_locally_scaling_and_expansivity_report_their_pairs(capsys):
    code, rep = run(capsys, ["analyze", "--p", "3", "--digits", "8",
                             "--map", "affine(v=3, w=1)",
                             "--checks", "locally_scaling,expansivity",
                             "--k", "0", "--m", "1", "--horizon", "4"])
    assert code == 0
    M = 3 ** 8
    pairs = M * (M - 1) // 2
    # j + 1 stays below the 8 digits on levels 0 to 6: every pair but the
    # M * (3 - 1) / 2 on level 7
    assert rep["records"]["locally_scaling"] == {
        "ok": True, "pairs": pairs - M, "witness": None}
    # the contraction never separates the closest pairs
    assert rep["records"]["expansivity"] == {
        "constant": "p^-7", "pairs": pairs, "witness": [0, 3 ** 7]}
    # the parameters the records were computed with are the config's
    assert {key: rep["config"][key] for key in ("k", "m", "horizon")} == {
        "k": 0, "m": 1, "horizon": 4}


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


def test_unknown_check_with_a_known_prefix_exits_two(capsys):
    code, rep = run(capsys, ["analyze", "--p", "3", "--digits", "4",
                             "--map", "shift_zp",
                             "--checks", "locally_scaling_bogus"])
    assert code == 2
    assert rep["message"] == "unknown check 'locally_scaling_bogus'"


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


@pytest.mark.parametrize("spec, param", [
    ("furno(k=2, sed=7)", "sed"),
    ("affine(v=3, ww=1)", "ww"),
])
def test_misspelled_map_parameter_exits_two(capsys, spec, param):
    # a misspelled parameter used to be dropped: furno(k=2, sed=7) ran
    # with seed 0 and exited 0
    code, rep = run(capsys, ["analyze", "--p", "2", "--digits", "6",
                             "--map", spec])
    assert code == 2
    assert rep["error"] == "BadParams"
    assert f"takes no parameter {param};" in rep["message"]


@pytest.mark.parametrize("window", ["1", "a:b", "1:2:3"])
def test_bad_window_exits_two(capsys, window):
    code, rep = run(capsys, ["analyze", "--p", "3", "--digits", "4",
                             "--map", "shift_qp", "--window", window])
    assert code == 2
    assert rep["error"] == "PadicDynamicsError"
    assert "--window" in rep["message"]


def test_documented_window_form_reaches_the_command(capsys):
    """The --window example in the help text parses and runs: a field-mode
    report with the window's digits.  The spaced form of a negative low
    end is read by argparse as an option and never reaches the command."""
    ap = cli._build_parser()
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices["analyze"]._actions
                  if "--window" in a.option_strings)
    example = action.help.split("e.g. ")[1].split()[0]
    assert example == "--window=-2:2"
    argv = ["analyze", "--p", "3", "--digits", "4", "--map",
            "rho_open_Ra(a=1)"]
    code, rep = run(capsys, argv + [example])
    assert code == 0 and rep["command"] == "analyze"
    assert rep["config"]["digits"] == 4
    assert rep["config"]["window"] == "-2:2"
    assert cli.main(argv + ["--window", "-2:2"]) == 2
    assert capsys.readouterr().out == ""


def _argv_from_config(command, config):
    """The command line that a report's config records: a flag for each
    true switch and none for a false one; the PRNG is not an option."""
    argv = [command]
    for key, value in config.items():
        if key == "prng" or value is False:
            continue
        argv.append(f"--{key}" if value is True else f"--{key}={value}")
    return argv


@pytest.mark.parametrize("argv", [
    ["conjugate", "--kind", "thm3", "--p", "3", "--digits", "4",
     "--window=-2:1", "--map", "remark2_uvw(u=p:3;u:1;d:1, v=p:3;u:2;d:1, "
     "w=p:3;u:0;d:1)", "--delta", "p^-3", "--depth", "7", "--count", "3"],
    ["analyze", "--p", "3", "--digits", "3", "--window=-2:1",
     "--map", "affine(v=3, w=1)", "--checks", "lipschitz,openness"],
    ["shadow", "--p", "3", "--digits", "5", "--length", "3",
     "--orbits", "2"],
    pytest.param(["shadow", "--p", "3", "--digits", "5", "--length", "3",
                  "--orbits", "2", "--oracle"], id="shadow-oracle"),
    pytest.param(["analyze", "--p", "3", "--digits", "4", "--map", "shift_zp",
                  "--checks", "expansivity,locally_scaling", "--horizon",
                  "3", "--k", "2", "--m", "-1"], id="analyze-horizon-k-m"),
    ["counterexample", "--p", "3", "--depth", "7", "--delta", "p^-4",
     "--eps", "p^-1"],
    ["suite", "--quick", "--seed", "2"],
], ids=lambda argv: argv[0])
def test_report_reruns_from_its_config(capsys, argv):
    """A report's config is the arguments as parsed, unset ones omitted:
    --digits as given, --window only when given and every option a
    record depends on, so running the command it records gives the same
    records."""
    code, rep = run(capsys, argv)
    assert code == 0
    windowed = any(a.startswith("--window") for a in argv)
    assert ("window" in rep["config"]) == windowed
    if "--digits" in argv:
        assert rep["config"]["digits"] == int(
            argv[argv.index("--digits") + 1])
    again = run(capsys, _argv_from_config(argv[0], rep["config"]))
    assert again == (code, rep)


def test_counterexample_command(capsys):
    code, rep = run(capsys, ["counterexample", "--p", "3", "--depth", "7",
                             "--delta", "p^-4", "--eps", "p^-1"])
    assert code == 0
    assert rep["records"]["even"]["shadowed"] is False
    assert rep["records"]["full_control"]["shadowed"] is True


def test_counterexample_runs_to_the_chart_budget(capsys, monkeypatch):
    """The oracle enumerates the 3^depth chart residues, so depth 11
    (3^11 residues) runs and depth 13 (3^13 > 2^20) is refused before a
    chart is built."""
    code, rep = run(capsys, ["counterexample", "--p", "3", "--depth", "11"])
    assert code == 0 and rep["summary"]["ok"] is True
    assert set(rep["records"]) == {"even", "full_control"}

    def no_chart(*args):
        raise AssertionError("a chart was built over the budget")

    monkeypatch.setattr(counterexample, "build_cantor_chart", no_chart)
    code, rep = run(capsys, ["counterexample", "--p", "3", "--depth", "13"])
    assert code == 2 and rep["error"] == "BudgetExceeded"


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


@pytest.mark.parametrize("seed", [0, 4])
def test_suite_records_are_the_commands_verdicts(capsys, seed):
    code, rep = run(capsys, ["suite", "--seed", str(seed)])
    assert set(rep["records"]) == set(cli.SUITE_RUNS) | {"analyze"}
    for name, line in cli.SUITE_RUNS.items():
        argv = shlex.split(line.format(seed=seed))
        assert rep["records"][name] == (cli.main(argv) == 0), name
    assert code == 0 and rep["summary"]["ok"] is True


def test_suite_fails_on_a_broken_inverse(capsys, monkeypatch):
    """The suite's Theorem 1 record runs the command's own round trip, so
    an inverse that is off by one fails it."""
    build = conjugacy.build_inverse_conjugacy_thm1

    def shifted(*args):
        h = build(*args)
        M = h.ctx.modulus
        return conjugacy.ConjugacyMap(h.ctx, [(y + 1) % M for y in h.table])

    monkeypatch.setattr(conjugacy, "build_inverse_conjugacy_thm1", shifted)
    code, rep = run(capsys, ["suite", "--quick"])
    assert code == 1 and rep["summary"]["ok"] is False
    assert rep["records"] == {"shadow": True, "conjugate": False,
                              "analyze": True, "contraction": True}


@pytest.mark.parametrize("argv", [
    ["shadow", "--p", "2", "--digits", "6", "--orbits", "1", "--length", "5",
     "--map", "shift_zp"],
    ["counterexample", "--p", "3", "--depth", "7", "--delta", "p^-4",
     "--eps", "p^-1"],
    ["suite", "--quick"],
], ids=lambda argv: argv[0])
def test_out_file_written(tmp_path, capsys, argv):
    path = tmp_path / "report.json"
    code = cli.main(argv + ["--out", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert path.read_text() == out


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
        "shadow", "conjugate", "conjugate", "conjugate", "analyze",
        "counterexample", "suite"]
    for argv in commands:
        code, rep = run(capsys, argv)
        assert code == 0, argv
        assert rep["summary"]["ok"] is True
