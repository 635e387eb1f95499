"""Random scenario text: ``parse_scenario`` and ``validate()`` either accept
it or raise ``ScenarioError``, and never take long doing so; ``verify`` on
it exits 0, 1 or 2 and never with a traceback."""

import contextlib
import io

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from heatchern.cli import main
from heatchern.scenario import ScenarioError, parse_scenario

KEYS = ("suite", "n", "a", "angles", "R", "curvature", "geometry", "action",
        "t-grid", "cutoff", "tolerance", "seed", "out", "format")
WORDS = ("all", "algebra", "fixed-point", "getzler", "duhamel", "spectral",
         "torsion", "torus", "sphere", "identity", "minus-id", "translation",
         "rotation", "pi", "-pi/2", "3pi/4", "pi/0", "nan", "inf", "-inf",
         "1e99999999", "1e-300", "5/2", "1/0", "0x10", "text", "json",
         "curv.inc", "case.scn", "#")

numbers = st.one_of(
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.floats().map(repr),
    st.tuples(st.integers(-99, 99), st.integers(-9, 99)).map(
        lambda pq: f"{pq[0]}/{pq[1]}"),
    st.tuples(st.integers(-99, 99), st.integers(-10 ** 7, 10 ** 7)).map(
        lambda me: f"{me[0]}e{me[1]}"),
)
tokens = st.one_of(
    st.sampled_from(KEYS + WORDS), numbers,
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
            max_size=8),
)
lines = st.one_of(
    st.tuples(st.sampled_from(KEYS), st.lists(tokens, max_size=6)).map(
        lambda line: " ".join((line[0],) + tuple(line[1]))),
    # indices that parse, so that the value token is read
    st.tuples(st.lists(st.integers(0, 5), min_size=4, max_size=4),
              numbers).map(
        lambda r: "R " + " ".join(map(str, r[0])) + f" {r[1]}"),
)
# scenarios that validate on their own, so that the random lines after them
# also reach the checks that validate() runs on a complete scenario
BASES = ("", "suite all\nn 4\na 2\n", "suite fixed-point\nn 6\na 2\n",
         "suite spectral\ngeometry torus\naction minus-id\n")


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "curv.inc").write_text("n 4\na 2\nR 1 2 1 2 3\n",
                                        encoding="utf-8")
    return directory


def _parse_and_validate(path):
    try:
        parse_scenario(str(path)).validate()
    except ScenarioError as exc:
        assert str(exc) and "\n" not in str(exc)


@settings(max_examples=300, deadline=1000)
@given(base=st.sampled_from(BASES), body=st.lists(lines, max_size=8))
def test_random_lines_raise_only_scenario_errors(scenario_dir, base, body):
    path = scenario_dir / "case.scn"
    path.write_text(base + "\n".join(body) + "\n", encoding="utf-8")
    _parse_and_validate(path)


@settings(max_examples=200, deadline=1000)
@given(data=st.binary(max_size=200))
def test_random_bytes_raise_only_scenario_errors(scenario_dir, data):
    path = scenario_dir / "bytes.scn"
    path.write_bytes(data)
    _parse_and_validate(path)


# scenarios that validate and run quickly: small n and a small mode cutoff
SMALL_BASES = ("suite all\nn 2\na 0\nangles 1.0\ncutoff 4\nt-grid 0.5\n",
               "suite fixed-point\nn 4\na 2\nangles 0.8\n",
               "suite spectral\ngeometry torus\naction translation 0.3 0.2\n"
               "cutoff 4\n",
               "suite torsion\n", "suite getzler\n", "suite duhamel\n")
# lines that often keep a scenario valid, so that most examples reach verify
PLAUSIBLE = tuple(f"suite {name}" for name in ("all", "algebra", "fixed-point",
                                              "getzler", "duhamel", "spectral",
                                              "torsion"))
PLAUSIBLE += ("geometry torus", "geometry sphere", "action minus-id",
              "action rotation 3pi/4", "action translation 1e-300 pi",
              "format json", "format csv")
values = st.one_of(numbers, st.sampled_from(("pi", "-pi/2", "3pi/4", "1e-300",
                                             "5/2", "nan", "inf")))
plausible_lines = st.one_of(
    st.tuples(st.sampled_from(("n", "a", "cutoff", "seed")),
              st.integers(-1, 8)).map(lambda kv: f"{kv[0]} {kv[1]}"),
    st.floats(1e-300, 1e3).map(lambda v: f"tolerance {v!r}"),
    st.tuples(st.sampled_from(("angles", "t-grid")),
              st.lists(values, min_size=1, max_size=3)).map(
        lambda kv: " ".join((kv[0],) + tuple(kv[1]))),
    st.sampled_from(PLAUSIBLE),
    st.tuples(st.lists(st.integers(1, 4), min_size=4, max_size=4),
              values).map(
        lambda r: "R " + " ".join(map(str, r[0])) + f" {r[1]}"),
)


@settings(max_examples=60, deadline=2000)
@given(base=st.sampled_from(SMALL_BASES),
       body=st.lists(plausible_lines, max_size=4))
def test_validated_scenarios_run_without_traceback(scenario_dir, base, body):
    path = scenario_dir / "run.scn"
    path.write_text(base + "\n".join(body) + "\n", encoding="utf-8")
    try:
        cfg = parse_scenario(str(path))
        cfg.validate()
    except ScenarioError:
        reject()    # the two tests above cover what validate() refuses
    # a random line may raise n or the cutoff past what fits in tier-1 time
    assume(cfg.n <= 6 and cfg.cutoff <= 40)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--config", str(path),
                     "--out", str(scenario_dir / "run.out")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
