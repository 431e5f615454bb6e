"""The CLI's exit-code contract, checked over generated inputs.

Whatever files and flags ``condition``, ``ens-cgp`` and ``enkf`` are given,
the run ends in exit 0, 1 or 2 and never in a traceback, and a fault on the
input side (mismatched shapes, a non-SPD R, an indefinite covariance, fewer
than two members, a non-finite token, a negative seed or rank tolerance)
exits 2. Well-posed inputs, rank-deficient and zero-spread priors and
zero-row H among them, exit 0. The examples are derandomized and bounded,
so the test is deterministic and short.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from enscgp.cli import main

ENTRIES = st.floats(-3.0, 3.0, allow_nan=False, width=64)


def matrices(rows, cols):
    return st.lists(ENTRIES, min_size=rows * cols, max_size=rows * cols).map(
        lambda values: np.array(values).reshape(rows, cols))


def matrix_text(a):
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    lines += [" ".join(repr(float(v)) for v in row) for row in a]
    return "\n".join(lines) + "\n"


COMMON_FAULTS = ["H columns", "R not SPD", "R size", "y length", "non-finite token",
                 "seed", "rank tolerance"]
FAULTS = {"condition": ["indefinite covariance", "covariance size", *COMMON_FAULTS],
          "ens-cgp": ["one member", *COMMON_FAULTS],
          "enkf": ["one member", *COMMON_FAULTS]}


@st.composite
def problems(draw):
    """(argv naming the files, {file name: text}, the input fault or None).

    Half the examples carry exactly one input fault, so each exit 2 is
    owed to that fault alone; the others are well posed.
    """
    command = draw(st.sampled_from(sorted(FAULTS)))
    fault = draw(st.sampled_from(FAULTS[command])) if draw(st.booleans()) else None
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1 if fault == "R not SPD" else 0, 3))
    arrays = {}
    if command == "condition":
        arrays["mean"] = draw(matrices(1, n))
        size = n + 1 if fault == "covariance size" else n
        b = draw(matrices(size, draw(st.integers(0, size))))
        cov = b @ b.T  # rank-deficient when b has fewer columns than rows
        if draw(st.booleans()):
            cov += np.eye(size)
        if fault == "indefinite covariance":
            cov = -cov - np.eye(size)
        arrays["cov"] = cov
    else:
        members = 1 if fault == "one member" else draw(st.integers(2, 5))
        spread = draw(matrices(n, members))
        if draw(st.booleans()):  # zero spread: every member the same
            spread = np.repeat(spread[:, :1], members, axis=1)
        arrays["members"] = spread
    arrays["H"] = draw(matrices(m, n + 1 if fault == "H columns" else n))
    r_size = m + 1 if fault == "R size" else m
    b = draw(matrices(r_size, r_size))
    arrays["R"] = b @ b.T + 0.5 * np.eye(r_size)
    if fault == "R not SPD":
        arrays["R"] = draw(st.sampled_from([-arrays["R"], np.zeros((m, m)),
                                            np.diag(np.arange(m) - 0.5)]))
    arrays["y"] = draw(matrices(1, m + 1 if fault == "y length" else m))

    texts = {name: matrix_text(a) for name, a in arrays.items()}
    if fault == "non-finite token":
        name = draw(st.sampled_from(sorted(k for k, a in arrays.items() if a.size)))
        lines = texts[name].split("\n")
        first = lines[1].split(" ")  # lines[0] is the header
        first[0] = draw(st.sampled_from(["nan", "inf", "-inf"]))
        lines[1] = " ".join(first)
        texts[name] = "\n".join(lines)

    argv = [command, *texts]
    seed = draw(st.integers(-3, -1) if fault == "seed" else st.integers(0, 3))
    argv += ["--seed", str(seed)]
    if fault == "rank tolerance":
        argv += ["--rank-tol", draw(st.sampled_from(["-1", "-1e-300", "nan", "inf"]))]
    elif draw(st.booleans()):
        argv += ["--rank-tol", draw(st.sampled_from(["0", "1e-6", "0.5"]))]
    argv += ["--format", draw(st.sampled_from(["text", "structured"]))]
    if command == "enkf":
        argv += draw(st.sampled_from([[], ["--disable-perturbations"],
                                      ["--center-perturbations"]]))
    return argv, texts, fault


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(problems())
def test_exit_code_contract(problem):
    argv, texts, fault = problem
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in texts.items():
            Path(tmp, name).write_text(text)
        argv = [str(Path(tmp, a)) if a in texts else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if fault:
        assert code == 2 and err.startswith("input error"), (fault, err)
    else:
        assert code == 0 and out.getvalue(), err
