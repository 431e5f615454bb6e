"""Command-line front end.

Subcommands: condition, ens-cgp, equivalence, collapse, kl-sample, enkf.
Inputs are plain-text matrix files (see matio); reports are emitted either
human-readable (``text``) or line-oriented ``key = value`` (``structured``),
with every number printed to 17 significant digits so identical configs
produce byte-identical output. Exit codes: 0 success, 1 computation error,
2 input or output error. Flag values are range-checked before any file is
read, all inputs are loaded and validated before any computation, and output
files are only written after the computation succeeds.

The environment variable ENSCGP_RANK_TOL supplies a default relative rank
tolerance; ``--rank-tol`` overrides it per run. A tolerance that is not
finite or is negative is an input error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys

import numpy as np

from . import ensemble as ens_mod
from . import experiments, kernels, matio
from .errors import DegenerateModelError, DimensionError
from .gaussian import GaussianLaw, ObservationModel, condition, kalman_gain
from .matio import format_float
from .psd import _norm

COMMANDS = ("condition", "ens-cgp", "equivalence", "collapse", "kl-sample", "enkf")

# every package error but DegenerateModelError subclasses ValueError, and
# so does numpy's LinAlgError
_INPUT_ERRORS = (OSError, ValueError)
_COMPUTE_ERRORS = (ValueError, DegenerateModelError)


def _fmt_value(value):
    """Yield the report text of one value: a float vector as ``[a b c]``
    and a float matrix as ``[[a b][c d]]``, printed by the matrix writer in
    its pieces, so no whole text of an array is held."""
    if isinstance(value, (bool, np.bool_)):
        yield "true" if value else "false"
    elif isinstance(value, (int, np.integer)):
        yield str(int(value))
    elif isinstance(value, (float, np.floating)):
        yield format_float(value)
    elif isinstance(value, str):
        yield value
    else:
        arr = np.asarray(value)
        if arr.dtype.kind == "f" and arr.ndim in (1, 2):
            # each row ends in a line feed, which becomes "]["; the last
            # piece's final "[" is dropped, so one piece is held back
            piece = "[[" if arr.ndim == 2 else "["
            for text in matio._format_text(np.atleast_2d(arr)):
                if text:  # a 0 x 0 matrix's text is empty
                    yield piece
                    piece = text.replace("\n", "][")
            yield piece[:-1] + ("]" if arr.ndim == 2 else "")
        elif arr.ndim == 1:
            yield "[" + " ".join("".join(_fmt_value(v)) for v in arr) + "]"
        else:
            raise ValueError(f"cannot format value of shape {arr.shape}")


def _render(pairs: list[tuple[str, object]], fmt: str):
    """Yield the report's text in pieces, one line's key or scalar value, or
    one writer block of an array, at a time."""
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        yield f"{key} = " if fmt == "structured" else f"{key.ljust(width)} : "
        yield from _fmt_value(value)
        yield "\n"


def _load_observation(h_path, r_path, state_dim: int | None):
    h = matio.read_matrix(h_path)
    r = matio.read_matrix(r_path)
    obs = ObservationModel(h, r)
    if state_dim is not None and obs.state_dim != state_dim:
        raise DimensionError(
            f"{h_path}: H has {obs.state_dim} columns, state dimension is {state_dim}"
        )
    return obs


def _load_data(y_path, obs: ObservationModel):
    y = matio.read_vector(y_path)
    if y.shape[0] != obs.n_obs:
        raise DimensionError(
            f"{y_path}: data has length {y.shape[0]}, expected {obs.n_obs}"
        )
    return y


def _load_moments_problem(args: argparse.Namespace):
    """Prior law, observation model and data from MEAN COV H R Y, in that order."""
    mean_p, cov_p, h_p, r_p, y_p = args.inputs
    mean = matio.read_vector(mean_p)
    cov = matio.read_matrix(cov_p)
    prior = GaussianLaw.from_moments(mean, cov, args.rank_tol)
    obs = _load_observation(h_p, r_p, prior.dim)
    return prior, obs, _load_data(y_p, obs)


def _load_ensemble_problem(args: argparse.Namespace):
    """Ensemble, observation model and data from MEMBERS H R Y, in that order."""
    members_p, h_p, r_p, y_p = args.inputs
    members = ens_mod.Ensemble(matio.read_matrix(members_p))
    obs = _load_observation(h_p, r_p, members.dim)
    return members, obs, _load_data(y_p, obs)


def _law_report(prefix: str, law: GaussianLaw) -> list[tuple[str, object]]:
    return [
        (f"{prefix}_mean", law.mean),
        (f"{prefix}_rank", law.rank),
        (f"{prefix}_cov_eigenvalues", law.cov_factor.eigenvalues),
        (f"{prefix}_cov_factor", law.cov_factor.factor),
    ]


def _run_condition(args: argparse.Namespace):
    prior, obs, y = _load_moments_problem(args)

    def compute():
        posterior = condition(prior, obs, y, args.rank_tol)
        pairs = [("command", "condition"), ("seed", args.seed),
                 ("rank_tol", _tol_value(args)), ("n", prior.dim),
                 ("m", obs.n_obs), ("prior_rank", prior.rank)]
        pairs += _law_report("posterior", posterior)
        return _render(pairs, args.format), {}

    return compute


def _run_ens_cgp(args: argparse.Namespace):
    members, obs, y = _load_ensemble_problem(args)

    def compute():
        prior = ens_mod.ensemble_stats(members, args.rank_tol)
        posterior = condition(prior, obs, y, args.rank_tol)
        pairs = [("command", "ens-cgp"), ("seed", args.seed),
                 ("rank_tol", _tol_value(args)), ("n", members.dim),
                 ("m", obs.n_obs), ("ensemble_size", members.size),
                 ("prior_mean", prior.mean), ("prior_rank", prior.rank)]
        pairs += _law_report("posterior", posterior)
        return _render(pairs, args.format), {}

    return compute


def _run_equivalence(args: argparse.Namespace):
    def compute():
        # each report is dropped once the values it renders are taken
        passes = 0
        instances = []
        for i, rep in enumerate(experiments.equivalence_corpus(args.count, args.seed)):
            tag = f"instance_{i:03d}"
            instances += [
                (f"{tag}_descriptor", np.array([rep.seed, rep.n, rep.m, rep.rank])),
                (f"{tag}_mean_discrepancies",
                 np.array([rep.mean_discrepancies[p] for p in experiments.MEAN_PAIRS])),
                (f"{tag}_cov_discrepancy", rep.cov_discrepancy),
                (f"{tag}_pass", rep.passed)]
            passes += rep.passed
        pairs = [("command", "equivalence"), ("seed", args.seed),
                 ("count", args.count),
                 ("mean_tol", experiments.MEAN_TOL),
                 ("cov_tol", experiments.COV_TOL),
                 ("mean_pairs", " ".join(f"{a}:{b}" for a, b in experiments.MEAN_PAIRS)),
                 ("passes", passes),
                 ("summary", f"{passes}/{args.count} pass")]
        return _render(pairs + instances, args.format), {}

    return compute


def _run_collapse(args: argparse.Namespace):
    prior, obs, y = _load_moments_problem(args)

    def compute():
        trace = experiments.repeated_reuse(prior, obs, y, args.k_max)
        pairs = [("command", "collapse"), ("seed", args.seed),
                 ("label", trace.label), ("n", prior.dim), ("m", obs.n_obs),
                 ("k_max", args.k_max),
                 ("recursive_max_discrepancy", trace.recursive_max_discrepancy),
                 ("final_mean", trace.final_mean),
                 ("final_cov", trace.final_cov),
                 ("final_spectral_norm", trace.spectral_norms[-1])]
        table = np.column_stack([trace.ks, trace.spectral_norms, trace.mean_shift_norms])
        return _render(pairs, args.format), _trace_file(
            args, "# k  cov_spectral_norm  mean_shift_norm", table)

    return compute


def _run_kl_sample(args: argparse.Namespace):
    (points_p,) = args.inputs
    spec = kernels.KernelSpec(args.family, args.variance, args.lengthscale)
    points = matio.read_matrix(points_p)
    if not 1 <= points.shape[0] <= kernels.POINTS_CAP:
        raise ValueError(f"{points_p}: POINTS must have 1 to {kernels.POINTS_CAP} rows, "
                         f"got {points.shape[0]}")
    _check_gram_range(spec, points, points_p)

    def compute():
        gram = kernels.gram_matrix(spec, points)
        if args.modes is not None:
            keep = args.modes
        elif args.energy is not None:
            keep = float(args.energy)
        else:
            keep = 1.0
        modes = kernels.kl_truncate(gram, keep, rank_tol=args.rank_tol)
        samples = kernels.sample_kl(modes, args.members, args.seed)
        comments = (
            f"kl-sample family={spec.family.value} variance={format_float(spec.variance)}"
            f" lengthscale={format_float(spec.lengthscale)}",
            f"seed={args.seed} members={args.members} n_modes={modes.factor.rank}"
            f" residual={format_float(modes.residual)}",
        )
        # the output is itself a matrix file, in either --format
        return matio._matrix_text(samples, comments), {}

    return compute


def _check_gram_range(spec: kernels.KernelSpec, points: np.ndarray, points_p) -> None:
    """Reject POINTS and flags whose Gram matrix K overflows when it is formed,
    symmetrized or eigendecomposed, before any of that is done.

    Forming K takes products x_i . x_j and squared norms, each at most
    |x|_F^2, and the squared distances add up to four of them. Every
    eigenvalue of the PSD matrix K is at most its trace, and so is every
    entry, so (K + K^T)/2 and the eigendecomposition stay finite when twice
    the trace does: n * variance for the stationary and white kernels,
    variance * |x|_F^2 for the linear one.
    """
    norm = _norm(points)
    if spec.family is not kernels.KernelFamily.WHITE and not 4.0 * norm * norm < math.inf:
        raise ValueError(f"{points_p}: POINTS too large: their squared Frobenius norm "
                         f"({norm:.3e} squared) overflows")
    if spec.family is kernels.KernelFamily.LINEAR:
        trace = spec.variance * norm * norm
    else:
        trace = spec.variance * points.shape[0]
    if not 2.0 * trace < math.inf:
        raise ValueError(f"--variance {spec.variance!r} is too large for {points_p}: "
                         f"twice the Gram matrix's trace overflows")


def _run_enkf(args: argparse.Namespace):
    members, obs, y = _load_ensemble_problem(args)
    perturb = not args.disable_perturbations

    def compute():
        # one empirical law and one gain serve the exact mean update and the
        # perturbed member update
        prior = ens_mod.ensemble_stats(members, args.rank_tol)
        gain = kalman_gain(prior, obs)
        with np.errstate(over="ignore", invalid="ignore"):
            exact = prior.mean + gain @ (y - obs.H @ prior.mean)
        if not np.isfinite(exact).all():
            raise ValueError("exact mean update must not contain infs or NaNs")
        updated = ens_mod.enkf_perturbed_obs(members, obs, y, gain, args.seed, perturb,
                                             args.center_perturbations)
        sample_mean = ens_mod._member_mean(updated.members)
        if not np.isfinite(sample_mean).all():
            raise ValueError("updated sample mean must not contain infs or NaNs")
        pairs = [("command", "enkf"), ("seed", args.seed),
                 ("rank_tol", _tol_value(args)), ("n", members.dim),
                 ("m", obs.n_obs), ("ensemble_size", members.size),
                 ("perturbations", perturb),
                 ("centered_perturbations", args.center_perturbations),
                 ("prior_mean", prior.mean), ("prior_rank", prior.rank),
                 ("exact_mean_update", exact),
                 ("updated_sample_mean", sample_mean),
                 ("sample_mean_discrepancy",
                  experiments.rel_vec_diff(sample_mean, exact))]
        table = np.array([(e, _norm(f - prior.mean), _norm(g - sample_mean))
                          for e, (f, g) in enumerate(zip(members.members.T,
                                                         updated.members.T))])
        side_files = _trace_file(
            args, "# member  prior_deviation  posterior_deviation", table)
        if args.save_members:
            side_files[args.save_members] = matio._matrix_text(
                updated.members,
                (f"ensemble members={updated.size}",
                 f"enkf seed={args.seed} perturb={str(perturb).lower()}"))
        return _render(pairs, args.format), side_files

    return compute


def _tol_value(args: argparse.Namespace):
    return "default" if args.rank_tol is None else args.rank_tol


def _trace_file(args: argparse.Namespace, header: str, table: np.ndarray) -> dict:
    """The plot-ready trace's text in pieces, written next to the report when
    it goes to --out: the header line, then the table by the matrix writer,
    whose %.17g prints an integral k or member index as that integer."""
    return ({f"{args.out}.trace": itertools.chain([f"{header}\n"],
                                                 matio._format_text(table))}
            if args.out else {})


_RUNNERS = {"condition": _run_condition, "ens-cgp": _run_ens_cgp,
            "equivalence": _run_equivalence, "collapse": _run_collapse,
            "kl-sample": _run_kl_sample, "enkf": _run_enkf}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command; returns the process exit code."""
    try:
        compute = _RUNNERS[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2

    try:
        report, side_files = compute()
    except _COMPUTE_ERRORS as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 1

    # each output is rendered as it is written, one piece at a time, so no
    # whole text is held; rendering cannot fail, so every output is still
    # written only after the computation succeeded
    if args.out:
        side_files = {args.out: report, **side_files}
    else:
        sys.stdout.writelines(report)
    for path, pieces in side_files.items():
        try:
            with open(path, "w") as file:
                file.writelines(pieces)
        except OSError as exc:
            print(f"output error: cannot write {path}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    return 0


@functools.cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enscgp",
        description="Exact Gaussian conditioning, its quadratic-program and "
                    "RKHS equivalents, and ensemble analysis updates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--rank-tol", type=float, default=None,
                       help="relative eigenvalue cutoff for numerical rank "
                            "(default: dimension * machine epsilon, or "
                            "ENSCGP_RANK_TOL if set)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="report file (default: stdout)")
        p.add_argument("--format", choices=("text", "structured"), default="text")

    p = sub.add_parser("condition", help="condition a Gaussian prior on linear data")
    p.add_argument("inputs", nargs=5, metavar="FILE",
                   help="MEAN COV H R Y matrix files")
    common(p)

    p = sub.add_parser("ens-cgp", help="condition an ensemble-defined prior")
    p.add_argument("inputs", nargs=4, help="MEMBERS H R Y matrix files")
    common(p)

    p = sub.add_parser("equivalence", help="four-route agreement audit on a seeded corpus")
    p.add_argument("--count", type=int, default=100)
    common(p)

    p = sub.add_parser("collapse", help="posterior collapse under k-fold data reuse")
    p.add_argument("inputs", nargs=5, help="MEAN COV H R Y matrix files")
    p.add_argument("--k-max", type=int, default=100)
    common(p)

    p = sub.add_parser("kl-sample", help="sample through truncated covariance eigenmodes")
    p.add_argument("inputs", nargs=1, help="POINTS matrix file (one point per row, "
                                            f"1 to {kernels.POINTS_CAP} rows)")
    p.add_argument("--family", choices=[f.value for f in kernels.KernelFamily],
                   required=True)
    p.add_argument("--variance", type=float, default=1.0,
                   help="kernel variance; twice the Gram matrix's trace (n * variance, "
                        "or variance * |POINTS|_F^2 for linear) must be a finite double")
    p.add_argument("--lengthscale", type=float, default=1.0)
    p.add_argument("--modes", type=int, default=None, help="number of eigenmodes to keep")
    p.add_argument("--energy", type=float, default=None,
                   help="energy fraction of the trace to keep (0, 1]")
    p.add_argument("--members", type=int, default=10,
                   help=f"number of samples (1 to {kernels.MEMBERS_CAP})")
    common(p)

    p = sub.add_parser("enkf", help="perturbed-observation ensemble analysis update")
    p.add_argument("inputs", nargs=4, help="MEMBERS H R Y matrix files")
    p.add_argument("--disable-perturbations", action="store_true",
                   help="eta = 0 variant (deterministic limit)")
    p.add_argument("--center-perturbations", action="store_true",
                   help="subtract the perturbation sample mean")
    p.add_argument("--save-members", default=None,
                   help="write the updated ensemble to this matrix file")
    common(p)
    return parser


def _check_flags(args: argparse.Namespace) -> None:
    """Reject out-of-range flag values before any file is read."""
    if args.rank_tol is not None and not 0 <= args.rank_tol < math.inf:
        raise ValueError(
            f"rank tolerance must be finite and nonnegative, got {args.rank_tol}")
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    if args.command == "collapse" and not 1 <= args.k_max <= experiments.K_MAX_CAP:
        raise ValueError(
            f"--k-max must be in [1, {experiments.K_MAX_CAP}], got {args.k_max}")
    if args.command == "equivalence" and not 0 <= args.count <= experiments.COUNT_CAP:
        raise ValueError(
            f"--count must be in [0, {experiments.COUNT_CAP}], got {args.count}")
    if args.command == "kl-sample":
        if not 1 <= args.members <= kernels.MEMBERS_CAP:
            raise ValueError(
                f"--members must be in [1, {kernels.MEMBERS_CAP}], got {args.members}")
        if args.modes is not None and args.energy is not None:
            raise ValueError("give at most one of --modes and --energy")
        if args.modes is not None and args.modes < 1:
            raise ValueError(f"--modes must be at least 1, got {args.modes}")
        if args.energy is not None and not 0 < args.energy <= 1:
            raise ValueError(f"--energy must be in (0, 1], got {args.energy}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.rank_tol is None and "ENSCGP_RANK_TOL" in os.environ:
            args.rank_tol = float(os.environ["ENSCGP_RANK_TOL"])
        _check_flags(args)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
