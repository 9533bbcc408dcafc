"""What `import gma` loads and exports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import gma


def test_import_skips_scipy_linalg_and_exports_resolve():
    src = str(Path(gma.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    code = ("import json, sys, gma; print(json.dumps({"
            "'linalg': 'scipy.linalg' in sys.modules, "
            "'missing': [n for n in gma.__all__ if not hasattr(gma, n)]}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert json.loads(proc.stdout) == {"linalg": False, "missing": []}
