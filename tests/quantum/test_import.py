"""``import repro.quantum`` is stdlib-only and self-contained.

The quantum package must load on a bare interpreter and must not drag in the
rest of the library: it loads neither NumPy nor any ``repro`` module outside
``repro.quantum`` (beyond the root package itself).  Checked in a fresh
subprocess, since this test process has long since imported both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_PROBE = """
import json, sys
import repro.quantum
print(json.dumps(sorted(sys.modules)))
"""


def test_import_loads_no_numpy_and_no_other_repro_package():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    modules = json.loads(result.stdout)
    assert "repro.quantum.grover" in modules
    assert not [name for name in modules if name.split(".")[0] in ("numpy", "scipy")]
    outside = [
        name
        for name in modules
        if name.startswith("repro.")
        and name != "repro._version"
        and name != "repro.quantum"
        and not name.startswith("repro.quantum.")
    ]
    assert outside == []
