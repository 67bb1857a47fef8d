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
    for family in ("model", "signed-zeros-long", "huge", "non-finite", "long"):
        for tag in ESTIMATORS:
            for path in ("offset", "series", "block"):
                assert f"{family} {tag} {path}" in groups
        for path in ("ml_offset", "closed_form_estimate_paper"):
            assert f"{family} {path}" in groups
    for oracle in ("exact", "hull", "grid", "grid-4096"):
        for family in ("oracle", "oracle-cap"):
            assert f"{family} {oracle}" in groups
    for command in ("simulate-long", "estimate-long", "simulate-flat", "estimate-flat",
                    "sweep", "sweep-blocks", "compare-oracle", "compare-oracle-blocks",
                    "compare-oracle-refused", "estimate-refused-manifest"):
        assert f"cli {command}" in groups
    for command in ("simulate", "sweep"):
        for form in ("config", "override", "unknown-key", "refused-count"):
            assert f"cli {command}-{form}" in groups
    for command in ("simulate", "estimate", "sweep", "compare-oracle"):
        assert f"cli help-{command}" in groups
