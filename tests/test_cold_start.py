"""Only the Duhamel surrogates load scipy.

``heatchern.duhamel`` imports ``scipy.linalg`` at its first matrix
exponential, so importing the package, parsing a scenario and running
every other suite leave scipy out of the process.  The check runs in a
fresh interpreter: the test process has loaded scipy long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.scn"))

PROBE = """
import json, sys
import heatchern
from heatchern import cli
from heatchern.scenario import parse_scenario

config, out, scenarios = sys.argv[1], sys.argv[2], sys.argv[3:]
for path in scenarios:
    parse_scenario(path)
codes = {}
for suite in ("algebra", "fixed-point", "getzler", "spectral", "torsion"):
    codes[suite] = cli.main(["verify", "--suite", suite, "--config", config,
                             "--out", out])
before = "scipy" in sys.modules
codes["duhamel"] = cli.main(["verify", "--suite", "duhamel",
                             "--config", config, "--out", out])
print(json.dumps({"codes": codes, "before": before,
                  "after": "scipy" in sys.modules}))
"""


def test_only_duhamel_loads_scipy(tmp_path):
    config = ROOT / "scenarios" / "all.scn"
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(config), str(tmp_path / "report"),
         *map(str, SCENARIOS)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True)
    result = json.loads(done.stdout)
    assert result["codes"] == dict.fromkeys(
        ["algebra", "fixed-point", "getzler", "spectral", "torsion",
         "duhamel"], 0)
    assert result["before"] is False
    assert result["after"] is True
