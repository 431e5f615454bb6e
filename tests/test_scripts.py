import hashlib
import importlib.util
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


def test_numerics_digest_parts_run(monkeypatch):
    """The digest's three parts, on a small corpus and one kernel prior (the
    script's own run, over 300 instances and six priors, is CI's)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # restored after the import sets them
    spec = importlib.util.spec_from_file_location("numerics_digest",
                                                  ROOT / "scripts" / "numerics_digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    digests = []
    for _ in range(2):
        digest = hashlib.sha256()
        script.corpus(digest, 9)
        script.kernel_priors(digest, 1)
        script.tie_family(digest)
        digests.append(digest.hexdigest())
    assert digests[0] == digests[1]
