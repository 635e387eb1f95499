import json
import math
import time
from fractions import Fraction

import pytest

from heatchern.cli import main
from heatchern.report import CheckRecord, Report, emit
from heatchern.scenario import ScenarioError, _parse_angle, parse_scenario
from heatchern.spectral import IsometryAction, SpectralModel, heat_supertrace
from heatchern.suites import run_suite

from test_report_digests import GOLDEN, GOLDEN_DIR, write_golden


def write_scn(tmp_path, text, name="case.scn"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- scenario grammar ----------------------------------------------------

def test_parse_full_scenario(tmp_path):
    path = write_scn(tmp_path, """
# comment line
suite spectral
n 4
a 2
angles 0.8   # trailing comment
R 1 2 1 2 -5/2
geometry sphere
action rotation pi/2
t-grid 0.1 0.5
cutoff 30
tolerance 1e-9
seed 7
format csv
""")
    cfg = parse_scenario(path)
    assert cfg.suite == "spectral"
    assert cfg.angles == (0.8,)
    assert cfg.curvature[(1, 2, 1, 2)] == Fraction(-5, 2)
    assert cfg.action_kind == "rotation"
    assert cfg.action_params[0] == pytest.approx(math.pi / 2)
    assert cfg.t_grid == (0.1, 0.5)
    assert cfg.seed == 7
    assert cfg.format == "csv"


def test_angle_forms():
    assert _parse_angle("pi") == pytest.approx(math.pi)
    assert _parse_angle("pi/2") == pytest.approx(math.pi / 2)
    assert _parse_angle("3pi/4") == pytest.approx(3 * math.pi / 4)
    assert _parse_angle("0.25") == 0.25
    with pytest.raises(ScenarioError):
        _parse_angle("pix2")


def test_angles_take_pi_forms(tmp_path):
    # one parser reads angles and action, so both take the forms above
    forms = parse_scenario(write_scn(tmp_path, "n 6\na 2\nangles pi/2 3pi/4\n"))
    floats = parse_scenario(write_scn(
        tmp_path, "n 6\na 2\nangles 1.5707963267948966 2.356194490192345\n"))
    assert forms == floats
    assert forms.angles == (1.5707963267948966, 2.356194490192345)


def test_curvature_include(tmp_path):
    write_scn(tmp_path, "R 1 2 1 2 3\nR 3 4 3 4 1/3\n", name="curv.inc")
    path = write_scn(tmp_path, "suite algebra\ncurvature curv.inc\n")
    cfg = parse_scenario(path)
    assert cfg.curvature[(3, 4, 3, 4)] == Fraction(1, 3)


def test_nested_include_rejected(tmp_path):
    write_scn(tmp_path, "curvature other.inc\n", name="curv.inc")
    write_scn(tmp_path, "R 1 2 1 2 1\n", name="other.inc")
    path = write_scn(tmp_path, "curvature curv.inc\n")
    with pytest.raises(ScenarioError):
        parse_scenario(path)


@pytest.mark.parametrize("key", ["suite torsion", "seed 5", "format json",
                                 "t-grid 0.5", "geometry torus"])
def test_include_sets_only_geometry_keys(tmp_path, capsys, key):
    """A curvature include holds n/a/angles/R lines; any other key exits 2
    with one line that names it."""
    write_scn(tmp_path, f"n 4\na 2\nangles 0.8\nR 1 2 1 2 3\n{key}\n",
              name="c.inc")
    path = write_scn(tmp_path, "suite algebra\ncurvature c.inc\n")
    assert main(["verify", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert f"{key.split()[0]!r}" in captured.err


def test_include_error_names_the_include(tmp_path, capsys):
    """An error inside a curvature include names the include's path between
    the including line and the include's own line."""
    inc = write_scn(tmp_path, "n 4\nR 1 2 1 2 x/y\n", name="c.inc")
    path = write_scn(tmp_path, "suite algebra\ncurvature c.inc\n")
    assert main(["verify", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: line 2: include {inc}: line 2: "
                            "bad rational value 'x/y'\n")


@pytest.mark.parametrize("body", [
    "suite nonsense\n",
    "format yaml\n",
    "t-grid\n",
    "t-grid -1\n",
    "tolerance 0\n",
    "cutoff 0\n",
    "n 2\na 3\n",
    "n 4\na 2\nangles 0.5 0.6\n",
    "R 1 2 1 2\n",
    "R 1 2 1 2 x/y\n",
    "action shear 1\n",
    "action rotation\n",
    "wibble 3\n",
    "curvature missing.inc\n",
    "n four\n",
    "angles 0.8 x\n",
    "R 1 2 x 1 1\n",
    "cutoff ten\n",
    "seed s\n",
    "action rotation pi/0\n",
    "t-grid nan\n",
    "t-grid 0.1 inf\n",
    "tolerance nan\n",
    "angles nan\n",
    "R 1 2 9 9 1\n",
    "R 0 2 1 2 1\n",
    "R 1 1 1 2 5\n",
    "R 1 2 1 2 3\nR 2 1 1 2 3\n",
    "geometry torus\naction rotation 1\n",
    "suite spectral\ngeometry sphere\naction minus-id\n",
    "geometry klein\n",
    "geometry torus\naction translation 7 0\n",
    "action rotation 7\n",
    "suite fixed-point\nn 5\na 1\n",
    "angles 0\n",
    "suite spectral\ngeometry torus\naction minus-id\ncutoff 200000\n",
    "suite fixed-point\nn 8\na 0\n",
    "suite fixed-point\nn 6\na 0\n",
    "suite fixed-point\nn 14\na 14\n",
    "suite all\nn 12\na 12\n",
])
def test_bad_scenarios(tmp_path, body):
    path = write_scn(tmp_path, body)
    with pytest.raises(ScenarioError):
        parse_scenario(path).validate()


def test_error_carries_line_number(tmp_path):
    path = write_scn(tmp_path, "suite algebra\nwibble 3\n")
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario(path)


def test_missing_scenario_file():
    with pytest.raises(ScenarioError):
        parse_scenario("/nonexistent/nowhere.scn")


def test_huge_exponent_rejected_at_once(tmp_path):
    # Fraction("1e99999999") would build 10^99999999 exactly
    for value in ("1e99999999", "-2.5E-1_0000"):
        start = time.perf_counter()
        with pytest.raises(ScenarioError, match="exponent over 4 digits"):
            parse_scenario(write_scn(tmp_path, f"R 1 2 1 2 {value}\n"))
        assert time.perf_counter() - start < 1
    cfg = parse_scenario(write_scn(tmp_path, "R 1 2 1 2 -1.5e0003\n"))
    assert cfg.curvature[(1, 2, 1, 2)] == -1500


def test_curvature_past_float_range_passes(tmp_path):
    # the exact routes take 10^999, and no float route reads R
    report = run_suite(parse_scenario(write_scn(
        tmp_path, "suite fixed-point\nn 4\na 2\nR 1 2 1 2 1e999\n")))
    assert report.records and report.passed


# -- report serialization ------------------------------------------------

def sample_report():
    rep = Report(suite="demo", seed=3)
    rep.add(CheckRecord("b-check", "n=2", "two-route", 1.0, 1.0 + 1e-18,
                        1e-8, True))
    rep.add(CheckRecord("a-check", "x, \"quoted\"", "bound", Fraction(1, 3),
                        "err", None, False))
    return rep


def test_text_report_lines():
    text = emit(sample_report(), "text")
    lines = text.splitlines()
    assert lines[0] == "suite: demo (seed 3)"
    assert lines[1].startswith("[FAIL] a-check:")
    assert lines[2].startswith("[PASS] b-check:")
    assert lines[-1] == ("summary: FAIL (1 passed, 1 failed: 1 two-route, "
                         "0 closed-form, 1 bound)")


def test_json_report_shape():
    doc = json.loads(emit(sample_report(), "json"))
    assert doc["suite"] == "demo"
    assert doc["passed"] is False
    names = [r["name"] for r in doc["records"]]
    assert names == sorted(names)
    assert doc["records"][0]["expected"] == "1/3"
    assert [r["kind"] for r in doc["records"]] == ["bound", "two-route"]


def test_csv_quoting():
    lines = emit(sample_report(), "csv").splitlines()
    assert lines[0] == "name,inputs,kind,expected,observed,tolerance,passed"
    assert lines[1].startswith('a-check,"x, ""quoted""",bound,')
    assert len(lines) == 3


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit(sample_report(), "xml")


def test_float_17_digit_round_trip():
    value = 0.1 + 0.2
    rep = Report(suite="s", seed=0,
                 records=[CheckRecord("x", "", "bound", value, value, None,
                                      True)])
    cell = json.loads(emit(rep, "json"))["records"][0]["observed"]
    assert float(cell) == value


# -- end-to-end CLI ------------------------------------------------------

def test_cli_requires_config(capsys):
    assert main([]) == 2
    assert "config" in capsys.readouterr().err


def test_cli_exit_codes_and_determinism(tmp_path, capsys):
    scn = write_scn(tmp_path, "suite spectral\ncutoff 40\nformat json\n")
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["--config", scn, "--out", out1]) == 0
    assert main(["verify", "--config", scn, "--out", out2]) == 0
    b1 = open(out1, "rb").read()
    assert b1 == open(out2, "rb").read()
    doc = json.loads(b1)
    assert doc["passed"] is True and doc["records"]


def test_cli_bad_config_exit_2(tmp_path, capsys):
    scn = write_scn(tmp_path, "suite nonsense\n")
    assert main(["--config", scn]) == 2
    assert main(["--config", str(tmp_path / "missing.scn")]) == 2
    assert capsys.readouterr().err


def test_cli_negative_seed_exit_2(tmp_path, capsys):
    # numpy's default_rng refuses a negative seed, as a check that ran
    # would: the scenario is refused before any check runs
    for body, argv in [("suite all\n", ["--seed", "-5"]),
                       ("suite torsion\nseed -3\n", [])]:
        assert main(["--config", write_scn(tmp_path, body)] + argv) == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be a non-negative integer\n"


def test_cli_non_utf8_scenario_exit_2(tmp_path, capsys):
    binary = b"suite torsion\n\xff\xfe\x00\x81\n"
    (tmp_path / "binary.scn").write_bytes(binary)
    (tmp_path / "binary.inc").write_bytes(binary)
    included = write_scn(tmp_path, "suite torsion\ncurvature binary.inc\n")
    for scn in (str(tmp_path / "binary.scn"), included):
        assert main(["--config", scn]) == 2
        err = capsys.readouterr().err
        assert "utf-8" in err.lower() and len(err.splitlines()) == 1


def test_cli_nan_t_grid_exit_2(tmp_path, capsys):
    # a NaN time never ends the spectral tail loop, so it is rejected
    scn = write_scn(tmp_path, "suite spectral\nt-grid nan\n")
    assert main(["--config", scn]) == 2
    assert "t-grid" in capsys.readouterr().err


# each body, and the quantities its message names as past the float range
UNRESOLVABLE = {
    "n 10\na 6\nt-grid 1e-70\n": ["factor (4 pi t)^(-n/2)"],
    "n 10\na 10\nt-grid 1e70\n": ["the fiber integral",
                                   "factor (4 pi t)^(-n/2)"],
    # only the Gaussian integral (4 pi t)^{b/2} / det(1 - phi^N) overflows
    "n 2\na 0\nangles 3.7e-13\nt-grid 4.2e287\n": ["the Gaussian integral"],
}


@pytest.mark.parametrize("body", UNRESOLVABLE)
def test_cli_unresolvable_fiber_integral_exit_2(tmp_path, capsys, body):
    # the fiber integral, its Gaussian factor or (4 pi t)^{-n/2} past the
    # float range, named in the message
    for suite in ("fixed-point", "all"):
        scn = write_scn(tmp_path, f"suite {suite}\n{body}")
        assert main(["--config", scn]) == 2
        err = capsys.readouterr().err
        assert "float range" in err and len(err.splitlines()) == 1
        assert [name for name in ("the Gaussian integral",
                                  "the fiber integral",
                                  "factor (4 pi t)^(-n/2)")
                if name in err] == UNRESOLVABLE[body]
    assert main(["--config", scn, "--suite", "torsion"]) == 0


def test_cli_rejected_curvature_exit_2(tmp_path, capsys):
    # out of range, and nonzero although antisymmetry forces zero
    for line in ("R 1 2 9 9 1", "R 1 1 1 2 5"):
        scn = write_scn(tmp_path, f"suite fixed-point\nn 4\na 2\n{line}\n")
        assert main(["--config", scn]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: curvature:") and err.count("\n") == 1


def test_action_checked_when_spectral_runs(tmp_path, capsys):
    for body, message in [
            ("geometry torus\naction rotation 1\n", "torus"),
            ("geometry klein\n", "klein"),
            ("geometry torus\naction translation 7 0\n", "[0, 2 pi)"),
            ("action rotation 7\n", "[0, 2 pi)")]:
        scn = write_scn(tmp_path, "suite torsion\n" + body)
        assert main(["--config", scn]) == 0
        capsys.readouterr()
        assert main(["--config", scn, "--suite", "spectral"]) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1


def test_one_geometry_action_rule(tmp_path, capsys):
    # validate() accepts exactly the pairs that heat_supertrace runs
    accepted = set()
    for geometry in ("torus", "sphere", "klein"):
        for action in ("identity", "minus-id", "translation 1 0.5",
                       "rotation 0.7"):
            scn = write_scn(tmp_path, f"suite spectral\ngeometry {geometry}\n"
                                      f"action {action}\ncutoff 2\n")
            cfg = parse_scenario(scn)
            try:
                heat_supertrace(SpectralModel(geometry, 2), IsometryAction(
                    cfg.action_kind, cfg.action_params), 1.0)
            except ValueError:
                assert main(["--config", scn]) == 2
                err = capsys.readouterr().err
                assert err.startswith("error: geometry: ") \
                    and len(err.splitlines()) == 1
            else:
                cfg.validate()
                accepted.add((geometry, action.split()[0]))
    assert accepted == {("torus", "identity"), ("torus", "minus-id"),
                        ("torus", "translation"), ("sphere", "rotation")}


def test_isometry_checked_when_fixed_point_runs(tmp_path, capsys):
    for body, message in [("n 5\na 1\n", "even"),
                          ("angles 0\n", "degenerate rotation angle")]:
        scn = write_scn(tmp_path, "suite algebra\n" + body)
        assert main(["--config", scn]) == 0
        capsys.readouterr()
        for suite in ("fixed-point", "all"):
            assert main(["--config", scn, "--suite", suite]) == 2
            err = capsys.readouterr().err
            assert message in err and len(err.splitlines()) == 1


def test_mode_term_cap(tmp_path, capsys):
    # (2K+1)^2 torus or K+1 sphere modes per sum, one sum per t-grid entry
    for body in ("geometry torus\naction minus-id\ncutoff 300\n"
                 "t-grid 0.01 0.1 0.5 1\n",
                 "cutoff 100000\nt-grid 0.001 0.1 0.5 1\n",
                 "cutoff 9999999\nt-grid 1\n"):
        parse_scenario(write_scn(tmp_path, "suite spectral\n" + body)).validate()
    scn = write_scn(tmp_path, "suite torsion\ncutoff 10000000\nt-grid 1\n")
    assert main(["--config", scn]) == 0
    capsys.readouterr()
    assert main(["--config", scn, "--suite", "spectral"]) == 2
    err = capsys.readouterr().err
    assert "10000001 mode terms" in err and len(err.splitlines()) == 1


def test_validated_after_overrides(tmp_path, capsys):
    # the file's suite would sum too many modes; --suite torsion sums none
    scn = write_scn(tmp_path, "suite spectral\ncutoff 5000000\n")
    assert main(["--config", scn, "--suite", "torsion"]) == 0
    capsys.readouterr()
    assert main(["--config", scn]) == 2


def test_fiber_quadrature_cap(tmp_path, capsys):
    # the Gauss-Hermite refinement evaluates 8^b + 16^b points, b = n - a
    parse_scenario(write_scn(tmp_path, "suite fixed-point\nn 4\na 0\n")).validate()
    scn = write_scn(tmp_path, "suite fixed-point\nn 6\na 0\n")
    assert main(["--config", scn]) == 2
    err = capsys.readouterr().err
    assert "17039360 Gauss-Hermite points" in err and len(err.splitlines()) == 1


def test_fixed_point_dimension_cap(tmp_path, capsys):
    # b = 0 passes the normal-dimension cap, but the exact routes at n = 14
    # do not finish in reasonable time
    parse_scenario(write_scn(tmp_path, "suite fixed-point\nn 10\na 10\n")
                   ).validate()
    scn = write_scn(tmp_path, "suite algebra\nn 14\na 14\n")
    for suite in ("fixed-point", "all"):
        assert main(["--config", scn, "--suite", suite]) == 2
        err = capsys.readouterr().err
        assert "n <= 10" in err and len(err.splitlines()) == 1


def test_tiny_t_ends_with_failing_tail_bound(tmp_path, capsys):
    # the tail of e^{-t k^2} at t = 1e-300 would need about 1e150 terms
    scn = write_scn(tmp_path, "suite spectral\nt-grid 1e-300\n")
    start = time.perf_counter()
    assert main(["--config", scn]) == 1
    assert time.perf_counter() - start < 10
    out = capsys.readouterr().out
    assert "[FAIL] spectral/tail-bound/t=1e-300: expected , observed error: " \
        "tail sum not settled after 1000000 terms" in out
    assert out.count("[FAIL]") == 1


def test_tail_terms_count_toward_mode_cap(tmp_path, capsys):
    # each t = 1e-11 runs the tail sum to its 1e6-term limit and fails
    scn = write_scn(tmp_path, "suite spectral\ngeometry torus\naction identity"
                    "\ncutoff 1\nt-grid" + " 1e-11" * 30 + "\n")
    assert main(["--config", scn]) == 2
    err = capsys.readouterr().err
    assert "270 mode terms and 30000000 tail terms" in err
    assert len(err.splitlines()) == 1
    # the smallest t counts the whole tail: nine entries fit, ten do not
    parse_scenario(write_scn(tmp_path, "suite spectral\nt-grid"
                             + " 5e-324" * 9 + "\n")).validate()
    with pytest.raises(ScenarioError, match="10000000 tail terms"):
        parse_scenario(write_scn(tmp_path, "suite spectral\nt-grid"
                                 + " 5e-324" * 10 + "\n")).validate()


def test_torsion_ill_conditioned_seeds_pass(tmp_path, capsys):
    # seeds whose complex is ill-conditioned enough that rounding exceeds
    # a fixed 1e-12 tolerance on the unitary-invariance check
    scn = write_scn(tmp_path, "suite torsion\n")
    for seed in ("373", "708356"):
        assert main(["--config", scn, "--seed", seed]) == 0


def test_cli_overrides(tmp_path, capsys):
    scn = write_scn(tmp_path, "suite spectral\nformat json\nseed 5\n")
    assert main(["--config", scn, "--suite", "torsion", "--seed", "9",
                 "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("suite: torsion (seed 9)")


def test_options_read_alike_before_and_after_verify(tmp_path, capsys):
    scn = write_scn(tmp_path, "suite torsion\n")
    for argv in (["--seed", "5", "--format", "json", "verify", "--config", scn],
                 ["verify", "--seed", "5", "--format", "json", "--config", scn],
                 ["--seed", "5", "--format", "json", "--config", scn]):
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["suite"], report["seed"]) == ("torsion", 5), argv


def test_cli_unwritable_out_exit_2(tmp_path, capsys):
    scn = write_scn(tmp_path, "suite torsion\n")
    assert main(["--config", scn, "--out",
                 str(tmp_path / "no" / "such" / "dir.txt")]) == 2


def test_suite_failures_exit_1(tmp_path, monkeypatch, capsys):
    # starve the spectral cutoff so the tail bound cannot certify the
    # tolerance; checks must fail as records, not crash
    scn = write_scn(tmp_path, "suite spectral\ncutoff 1\ntolerance 1e-12\n"
                              "t-grid 0.05\n")
    assert main(["--config", scn]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert "summary: FAIL" in out


def test_run_suite_all_sections(tmp_path):
    cfg = parse_scenario(write_scn(tmp_path, "suite all\nn 4\na 2\n"
                                             "angles 0.8\ncutoff 40\n"))
    rep = run_suite(cfg)
    assert rep.passed
    prefixes = {r.name.split("/", 1)[0] for r in rep.records}
    assert {"algebra", "fixed-point", "getzler", "duhamel", "spectral",
            "torsion"} <= prefixes


# -- golden reports --------------------------------------------------------

@pytest.mark.parametrize("name, fmt", GOLDEN)
def test_scenario_report_matches_golden(tmp_path, capsys, name, fmt):
    """``verify`` reproduces tests/golden/ byte for byte.  After an intended
    report change, ``PYTHONPATH=src python tests/test_report_digests.py``
    regenerates every golden file; say why in CHANGES.md."""
    out = write_golden(name, fmt, tmp_path)
    assert out.read_bytes() == (GOLDEN_DIR / out.name).read_bytes()
