import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("run_collapse_demo.py", ["--k-max", "100", "--out", "collapse.dat"]),
    ("run_equivalence_corpus.py", ["--count", "20"]),
    ("run_enkf_convergence.py", ["--sizes", "100", "--seeds", "2"]),
    ("cli_snapshot.py", ["snapshot"]),
    ("check_number_format.py", ["--count", "20000"]),
])
def test_script_runs(script, args, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                            cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
