"""The report of every ``scenarios/*.scn`` at seeds 0-9, in every format,
against the sha256 digests in tests/golden/digests.txt.

The goldens of ``test_cli.py`` pin each scenario's own seed; this pins ten
seeds in all three formats, one ``run_suite`` per seed and one ``emit`` per
format.  After an intended report change, regenerate the file with
``PYTHONPATH=src python tests/test_report_digests.py > tests/golden/digests.txt``
and say why in CHANGES.md.
"""

import hashlib
from pathlib import Path

from heatchern.report import emit
from heatchern.scenario import FORMATS, parse_scenario
from heatchern.suites import run_suite

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "golden" / "digests.txt"


def digest_lines() -> list:
    """``<scenario> <seed> <format> <sha256 of the report>``, one a line."""
    lines = []
    for path in sorted((ROOT / "scenarios").glob("*.scn")):
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
    print("\n".join(digest_lines()))
