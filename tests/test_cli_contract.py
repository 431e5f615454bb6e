"""The CLI's exit-code contract, checked over generated inputs.

Whatever files and flags any of the six commands is given, the run ends in
exit 0, 1 or 2 and never in a traceback, and a fault on the input side
(mismatched shapes, a non-SPD R, an indefinite covariance, fewer than two
members, a non-finite token, POINTS without rows, a flag out of range, a
negative seed or rank tolerance) exits 2. Half the examples are at unit
scale, where every well-posed input (rank-deficient and zero-spread priors
and zero-row H among them) exits 0, unless its rank tolerance is one of
``LOOSE_TOLS``. In the other half each matrix file and
each kernel parameter is scaled by its own power of ten from 1e-300 to
1e300; such a run may also stop with exit 1 or 2, but a run that exits 0
writes no ``nan`` or ``inf`` in its report or any side file. No run raises
a numpy ``RuntimeWarning``: an overflow ends in a named error. The examples
are derandomized and bounded, so the test is deterministic and short.
"""

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from enscgp.cli import main
from enscgp.experiments import COUNT_CAP, K_MAX_CAP
from enscgp.kernels import MEMBERS_CAP, KernelFamily

ENTRIES = st.floats(-3.0, 3.0, allow_nan=False, width=64)
NON_FINITE = re.compile(r"(?<![a-z])(nan|inf)(?![a-z])", re.IGNORECASE)


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
          "collapse": ["indefinite covariance", "covariance size", "k-max",
                       *COMMON_FAULTS],
          "ens-cgp": ["one member", *COMMON_FAULTS],
          "enkf": ["one member", *COMMON_FAULTS],
          "kl-sample": ["no points", "non-finite token", "variance", "lengthscale",
                        "members", "modes", "energy", "modes and energy", "seed",
                        "rank tolerance"],
          "equivalence": ["count", "seed", "rank tolerance"]}
# flag values out of range, one of which a fault of that name draws
BAD_FLAGS = {"k-max": ["--k-max", ["0", "-1", str(K_MAX_CAP + 1)]],
             "variance": ["--variance", ["0", "-1", "inf", "nan"]],
             "lengthscale": ["--lengthscale", ["0", "-1", "nan"]],
             "members": ["--members", ["0", str(MEMBERS_CAP + 1)]],
             "modes": ["--modes", ["0", "-2"]],
             "energy": ["--energy", ["0", "1.5", "nan"]],
             "count": ["--count", ["-1", str(COUNT_CAP + 1)]]}


# tolerances with which a well-posed unit-scale run may stop: 0 makes a
# rank-deficient covariance (an input error) or Gram matrix (a computation
# error) indefinite by round-off, and 0.5 can make collapse's SPD prior singular
LOOSE_TOLS = {"condition": {"0"}, "kl-sample": {"0"}, "collapse": {"0.5"}}


def _moments_arrays(draw, command, fault, n):
    mean = draw(matrices(1, n))
    size = n + 1 if fault == "covariance size" else n
    b = draw(matrices(size, draw(st.integers(0, size))))
    cov = b @ b.T  # rank-deficient when b has fewer columns than rows
    # collapse needs an SPD prior
    if command == "collapse" or draw(st.booleans()):
        cov += np.eye(size)
    if fault == "indefinite covariance":
        cov = -cov - np.eye(size)
    return {"mean": mean, "cov": cov}


def _observation_arrays(draw, fault, n):
    m = draw(st.integers(1 if fault == "R not SPD" else 0, 3))
    arrays = {"H": draw(matrices(m, n + 1 if fault == "H columns" else n))}
    r_size = m + 1 if fault == "R size" else m
    b = draw(matrices(r_size, r_size))
    arrays["R"] = b @ b.T + 0.5 * np.eye(r_size)
    if fault == "R not SPD":
        arrays["R"] = draw(st.sampled_from([-arrays["R"], np.zeros((m, m)),
                                            np.diag(np.arange(m) - 0.5)]))
    arrays["y"] = draw(matrices(1, m + 1 if fault == "y length" else m))
    return arrays


def _kl_flags(draw, fault, scaled):
    def magnitude(unit):
        return repr(10.0 ** draw(st.integers(-300, 300))) if scaled else unit

    # only the stationary kernels read a lengthscale
    families = ["squared-exponential", "exponential"] if fault == "lengthscale" else \
        [f.value for f in KernelFamily]
    flags = ["--family", draw(st.sampled_from(families)),
             "--variance", magnitude(draw(st.sampled_from(["0.5", "1", "2"]))),
             "--lengthscale", magnitude(draw(st.sampled_from(["0.3", "1"]))),
             "--members", str(draw(st.integers(1, 4)))]
    if fault == "modes and energy":
        flags += ["--modes", "1", "--energy", "0.5"]
    else:
        flags += draw(st.sampled_from([[], ["--modes", "1"], ["--energy", "0.5"],
                                       ["--energy", "1"]]))
    return flags


@st.composite
def problems(draw):
    """(argv naming the files, {file name: text}, the input fault or None,
    whether a run without the fault must exit 0).

    Half the examples carry exactly one input fault, so each exit 2 is
    owed to that fault alone; the others are well posed.
    """
    command = draw(st.sampled_from(sorted(FAULTS)))
    fault = draw(st.sampled_from(FAULTS[command])) if draw(st.booleans()) else None
    scaled = draw(st.booleans())
    n = draw(st.integers(1, 4))
    arrays = {}
    if command in ("condition", "collapse"):
        arrays |= _moments_arrays(draw, command, fault, n)
    elif command in ("ens-cgp", "enkf"):
        members = 1 if fault == "one member" else draw(st.integers(2, 5))
        spread = draw(matrices(n, members))
        if draw(st.booleans()):  # zero spread: every member the same
            spread = np.repeat(spread[:, :1], members, axis=1)
        arrays["members"] = spread
    elif command == "kl-sample":
        points = draw(matrices(0 if fault == "no points" else n, draw(st.integers(1, 3))))
        if points.size:
            points[0, 0] = 1.0  # so a linear kernel has a mode to keep
        arrays["points"] = points
    if command not in ("kl-sample", "equivalence"):
        arrays |= _observation_arrays(draw, fault, n)
    if scaled:
        arrays = {name: a * 10.0 ** draw(st.integers(-300, 300))
                  for name, a in arrays.items()}

    texts = {name: matrix_text(a) for name, a in arrays.items()}
    if fault == "non-finite token":
        name = draw(st.sampled_from(sorted(k for k, a in arrays.items() if a.size)))
        lines = texts[name].split("\n")
        first = lines[1].split(" ")  # lines[0] is the header
        first[0] = draw(st.sampled_from(["nan", "inf", "-inf"]))
        lines[1] = " ".join(first)
        texts[name] = "\n".join(lines)

    argv = [command, *texts]
    if command == "kl-sample":
        argv += _kl_flags(draw, fault, scaled)
    elif command == "collapse":
        argv += ["--k-max", str(draw(st.integers(1, 5)))]
    elif command == "equivalence":
        argv += ["--count", str(draw(st.integers(0, 3)))]
    elif command == "enkf":
        argv += draw(st.sampled_from([[], ["--disable-perturbations"],
                                      ["--center-perturbations"]]))
    if fault in BAD_FLAGS:
        flag, values = BAD_FLAGS[fault]
        argv.append(f"{flag}={draw(st.sampled_from(values))}")  # the last one counts
    seed = draw(st.integers(-3, -1) if fault == "seed" else st.integers(0, 3))
    argv += ["--seed", str(seed)]
    # "--rank-tol=-1e-300", as argparse would read "-1e-300" as an option
    strict = not scaled
    if fault == "rank tolerance":
        argv.append("--rank-tol=" + draw(st.sampled_from(["-1", "-1e-300", "nan", "inf"])))
    elif draw(st.booleans()):
        tol = draw(st.sampled_from(["0", "1e-6", "0.5"]))
        argv.append("--rank-tol=" + tol)
        strict = strict and tol not in LOOSE_TOLS.get(command, ())
    argv += ["--format", draw(st.sampled_from(["text", "structured"]))]
    return argv, texts, fault, strict


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(problems())
def test_exit_code_contract(problem):
    argv, texts, fault, strict = problem
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in texts.items():
            Path(tmp, name).write_text(text)
        argv = [str(Path(tmp, a)) if a in texts else a for a in argv]
        report = Path(tmp, "report.txt")
        save = ["--save-members", str(Path(tmp, "members.out"))] if argv[0] == "enkf" else []
        # a numpy warning is a failure: every overflow must end in a named error
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([*argv, "--out", str(report), *save])
        written = {p.name: p.read_text() for p in Path(tmp).iterdir()
                   if p.name not in texts}
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if fault:
        assert code == 2 and err.startswith("input error"), (fault, err)
    elif strict:
        assert code == 0 and written["report.txt"], err
    if code == 0:
        for name, text in written.items():
            assert not NON_FINITE.search(text), (name, text)
