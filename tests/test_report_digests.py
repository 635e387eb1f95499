"""The report of every ``scenarios/*.scn`` at seeds 0-9, in every format,
against the sha256 digests in tests/golden/digests.txt.

The goldens of ``test_cli.py`` pin each scenario's own seed; this pins ten
seeds in all three formats, one ``run_suite`` per seed and one ``emit`` per
format.  After an intended report change, one command regenerates
``digests.txt`` and every golden report that ``test_cli.py`` reads, the
latter through ``cli.main`` as that test runs it:
``PYTHONPATH=src python tests/test_report_digests.py``.  Say why in
CHANGES.md.
"""

import hashlib
from pathlib import Path

from heatchern.cli import main
from heatchern.report import emit
from heatchern.scenario import FORMATS, parse_scenario
from heatchern.suites import run_suite

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
DIGESTS = GOLDEN_DIR / "digests.txt"
SCENARIOS = sorted((ROOT / "scenarios").glob("*.scn"))

# (scenario, format) of each golden report, as NAME.EXT in GOLDEN_DIR
GOLDEN = [(p.stem, "text") for p in SCENARIOS] + [("all", "json"),
                                                  ("all", "csv")]
EXTENSIONS = {"text": "txt", "json": "json", "csv": "csv"}


def write_golden(name: str, fmt: str, directory: Path) -> Path:
    """``verify`` on scenarios/NAME.scn in fmt, written to directory/NAME.EXT."""
    out = Path(directory) / f"{name}.{EXTENSIONS[fmt]}"
    code = main(["--config", str(ROOT / "scenarios" / f"{name}.scn"),
                 "--format", fmt, "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"verify exited {code} on {name} in {fmt}")
    return out


def digest_lines() -> list:
    """``<scenario> <seed> <format> <sha256 of the report>``, one a line."""
    lines = []
    for path in SCENARIOS:
        for seed in range(10):
            cfg = parse_scenario(str(path))
            cfg.seed = seed
            report = run_suite(cfg)
            for fmt in FORMATS:
                digest = hashlib.sha256(emit(report, fmt).encode()).hexdigest()
                lines.append(f"{path.stem} {seed} {fmt} {digest}")
    return lines


def test_reports_match_digests():
    assert digest_lines() == DIGESTS.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    DIGESTS.write_text("".join(f"{line}\n" for line in digest_lines()),
                       encoding="utf-8", newline="")
    for name, fmt in GOLDEN:
        write_golden(name, fmt, GOLDEN_DIR)
