"""``tools/identity.py`` digests the same results on every run, over every variant, path
and oracle."""

import subprocess
import sys
from pathlib import Path

from fgclock.estimators import ESTIMATORS

ROOT = Path(__file__).resolve().parent.parent


def test_tiny_digests_repeat_and_cover_every_variant_and_path(tmp_path):
    digests = []
    for run in range(2):
        out = tmp_path / f"digests-{run}.txt"
        subprocess.run([sys.executable, str(ROOT / "tools" / "identity.py"), "--src", str(ROOT),
                        "--out", str(out), "--tiny"], check=True, capture_output=True)
        digests.append(out.read_text())
    assert digests[0] == digests[1]
    groups = {line.rsplit(" ", 2)[0] for line in digests[0].splitlines()}
    for tag in ESTIMATORS:
        for path in ("offset", "series", "block"):
            for family in ("model", "signed-zeros-long", "huge", "non-finite", "long"):
                assert f"{family} {tag} {path}" in groups
    for oracle in ("exact", "coordinate-ascent", "grid"):
        assert f"oracle {oracle}" in groups
    for command in ("simulate-long", "estimate-long", "simulate-flat", "estimate-flat",
                    "sweep", "compare-oracle"):
        assert f"cli {command}" in groups
