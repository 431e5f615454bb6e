import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import enscgp

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_resolves():
    missing = [name for name in enscgp.__all__ if not hasattr(enscgp, name)]
    assert missing == []


def test_benchmark_per_layer_names_resolve(monkeypatch):
    # the traced benchmark run fails when a declared span or counter is gone
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans

    tracer = spans.Tracer()
    tracer.traced(lambda: None)  # the root span every benchmark step runs under
    produced = tracer.layer_metrics(0, [1.0], [1.0])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in produced]
    assert missing == []


KERNEL_IMPORT = textwrap.dedent("""
    import json, sys
    import numpy as np
    if {linalg_first}:
        import scipy.linalg
    import enscgp.cli
    from enscgp import psd
    linalg_after_cli = "scipy.linalg" in sys.modules
    flapack_registered = "scipy.linalg._flapack" in sys.modules
    import scipy.linalg
    b = np.random.default_rng(7).normal(size=(6, 6))
    a = b @ b.T + 6 * np.eye(6)
    print(json.dumps({{
        "linalg_after_cli": linalg_after_cli,
        "flapack_registered": flapack_registered,
        "same_kernels": [getattr(scipy.linalg.lapack, k) is getattr(psd, k)
                         for k in ("dsyevd", "dpotrf", "dpotrs", "dpotri", "dtrtrs")],
        "same_bits": (scipy.linalg.cho_factor(a, lower=True)[0].tobytes()
                      == psd._chol_lower(a).tobytes()),
    }}))
""")


@pytest.mark.parametrize("linalg_first", (False, True))
def test_lapack_kernels_bound_without_scipy_linalg(linalg_first):
    # psd loads scipy.linalg._flapack by file location; scipy.linalg's package
    # import, whichever comes first, must share that one extension module
    result = subprocess.run([sys.executable, "-c", KERNEL_IMPORT.format(linalg_first=linalg_first)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"linalg_after_cli": linalg_first,
                                         "flapack_registered": True,
                                         "same_kernels": [True] * 5,
                                         "same_bits": True}
