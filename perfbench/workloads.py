"""The four benchmark workloads: seeded set-up, one timed step, its checks.

Every input comes from the workload seed through ``NormalStream``
substreams and is generated during set-up; matrix files are written only
for the workloads that drive the CLI. A step calls the package through
module attributes (``cli.main``, ``experiments.run_equivalence``) so that
the traced run's patches see every call.

``check`` runs outside the timed region and returns a list of failure
messages; every failure counts, and any failure makes the run's
``correct`` false.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from enscgp import cli, ensemble, experiments, kernels, matio
from enscgp.gaussian import GaussianLaw, ObservationModel
from enscgp.rng import NormalStream

SPEC = json.loads((Path(__file__).with_name("spec.json")).read_text())

REL_TOL = 1e-8
SEED_RANGE = 2**31 - 1


def read_report(path, keys):
    """Values of the requested keys from a ``--format structured`` report."""
    values = {}
    for line in Path(path).read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep and key in keys:
            values[key] = value
    missing = set(keys) - set(values)
    if missing:
        raise KeyError(f"{path}: report lacks {sorted(missing)}")
    return values


def parse_vector(text: str) -> np.ndarray:
    return np.array(text.strip("[]").split(), dtype=float)


def audit_failures(report, label: str = ""):
    """The failed audit verdict, if any, as a one-message list."""
    if report.passed:
        return []
    worst = max(report.mean_discrepancies, key=report.mean_discrepancies.get)
    return [f"{label}audit failed (n={report.n}, m={report.m}, rank={report.rank}): "
            f"{':'.join(worst)} {report.mean_discrepancies[worst]:.3e}, "
            f"cov {report.cov_discrepancy:.3e}"]


def distinct_indices(stream: NormalStream, n: int, m: int) -> np.ndarray:
    """``m`` distinct sorted indices out of ``range(n)``."""
    return np.sort(np.argsort(stream.uniforms(n), kind="stable")[:m])


def point_operator(indices, n: int) -> np.ndarray:
    h = np.zeros((len(indices), n))
    h[np.arange(len(indices)), indices] = 1.0
    return h


class EnsCycle:
    """Cycling filter on files: ens-cgp, then enkf whose saved members feed the next step."""


    def __init__(self, seed: int, workdir: Path):
        shapes = SPEC["workloads"]["ens-cycle"]["shapes"]
        n, e, m = shapes["n"], shapes["members"], shapes["m"]
        self.n, self.size = n, e
        stream = NormalStream(seed)
        base = stream.substream(0)
        truth = np.cumsum(base.normals(n)) / np.sqrt(n)
        self.members = truth[:, None] + base.normals((n, e))
        self.obs = ObservationModel(point_operator(distinct_indices(base, n, m), n),
                                    shapes["obs_var"] * np.eye(m))
        self.files = {name: str(workdir / f"{name}.txt")
                      for name in ("members", "H", "R", "report", "enkf_report")}
        matio.write_matrix(self.files["members"], self.members)
        matio.write_matrix(self.files["H"], self.obs.H)
        matio.write_matrix(self.files["R"], self.obs.R)
        self.data, self.y_paths, self.enkf_seeds = [], [], []
        for i in range(shapes["step_pool"]):
            sub = stream.substream(1 + i)
            y = self.obs.H @ truth + np.sqrt(shapes["obs_var"]) * sub.normals(m)
            path = str(workdir / f"y_{i:03d}.txt")
            matio.write_matrix(path, y)
            self.data.append(matio.read_vector(path))  # the values the CLI will see
            self.y_paths.append(path)
            self.enkf_seeds.append(int(sub.integers(0, SEED_RANGE)))

    def step(self, i: int):
        f, k = self.files, i % len(self.y_paths)
        inputs = [f["members"], f["H"], f["R"], self.y_paths[k]]
        rc_cgp = cli.main(["ens-cgp", *inputs, "--format", "structured",
                           "--out", f["report"]])
        rc_enkf = cli.main(["enkf", *inputs, "--seed", str(self.enkf_seeds[k]),
                            "--format", "structured", "--out", f["enkf_report"],
                            "--save-members", f["members"]])
        return rc_cgp, rc_enkf

    def check(self, i: int, out):
        rc_cgp, rc_enkf = out
        failures = []
        if rc_cgp != 0 or rc_enkf != 0:
            failures.append(f"exit codes ens-cgp={rc_cgp} enkf={rc_enkf}")
        if rc_cgp == 0:
            report = read_report(self.files["report"], ("posterior_rank", "posterior_mean"))
            rank = int(report["posterior_rank"])
            if rank > self.size - 1:
                failures.append(f"posterior_rank {rank} > {self.size - 1}")
            y = self.data[i % len(self.data)]
            stats = ensemble.ensemble_stats(ensemble.Ensemble(self.members))
            reference = ensemble.enkf_mean_update(stats, self.obs, y)
            mean = parse_vector(report["posterior_mean"])
            err = (np.linalg.norm(mean - reference) / np.linalg.norm(reference)
                   if mean.shape == reference.shape else np.inf)
            if not err <= REL_TOL:
                failures.append(f"posterior_mean off enkf_mean_update by {err:.3e}")
        if rc_enkf == 0:
            saved = matio.read_matrix(self.files["members"])
            if saved.shape != (self.n, self.size):
                failures.append(f"saved members have shape {saved.shape}")
            else:
                self.members = saved
        return failures


class AuditCorpus:
    """The equivalence audit over the package's gated corpus, one instance per step."""

    def __init__(self, seed: int, workdir: Path):
        shapes = SPEC["workloads"]["audit-corpus"]["shapes"]
        base, count = shapes["base_seed"], shapes["instances"]
        order = np.argsort(NormalStream(seed).substream(0).uniforms(count), kind="stable")
        self.instances = [(int(index), experiments.make_instance(int(index), base))
                          for index in order]

    def step(self, i: int):
        index, (prior, obs, y) = self.instances[i % len(self.instances)]
        return experiments.run_equivalence(prior, obs, y, seed=index)

    def check(self, i: int, report):
        index, _ = self.instances[i % len(self.instances)]
        return audit_failures(report, f"make_instance({index}): ")


class KernelDense:
    """Dense full-rank kernel priors through gram, moments, audit, KL truncation and sampling."""

    def __init__(self, seed: int, workdir: Path):
        shapes = SPEC["workloads"]["kernel-dense"]["shapes"]
        n, m = shapes["n"], shapes["m"]
        low, high = shapes["lengthscale"]
        self.energy, self.samples = shapes["kl_energy"], shapes["samples"]
        stream = NormalStream(seed)
        self.inputs = []
        for i in range(shapes["step_pool"]):
            sub = stream.substream(i)
            points = np.sort(sub.uniforms(n))
            lengthscale = low + (high - low) * float(sub.uniforms(1)[0])
            obs = ObservationModel(point_operator(distinct_indices(sub, n, m), n),
                                   shapes["obs_var"] * np.eye(m))
            self.inputs.append((kernels.KernelSpec(shapes["family"], shapes["variance"],
                                                   lengthscale),
                                points, obs, sub.normals(m), int(sub.integers(0, SEED_RANGE))))

    def step(self, i: int):
        spec, points, obs, y, sample_seed = self.inputs[i % len(self.inputs)]
        gram = kernels.gram_matrix(spec, points)
        prior = GaussianLaw.from_moments(np.zeros(len(points)), gram)
        report = experiments.run_equivalence(prior, obs, y)
        modes = kernels.kl_truncate(gram, self.energy)
        draws = kernels.sample_kl(modes, self.samples, sample_seed)
        return report, draws

    def check(self, i: int, out):
        spec = self.inputs[i % len(self.inputs)][0]
        report, _ = out
        return audit_failures(report, f"lengthscale {spec.lengthscale:.3f}: ")


class Collapse:
    """``enscgp collapse`` on an SPD prior with its trace file written."""


    def __init__(self, seed: int, workdir: Path):
        shapes = SPEC["workloads"]["collapse"]["shapes"]
        n, m = shapes["n"], shapes["m"]
        self.k_max = shapes["k_max"]
        stream = NormalStream(seed)
        base = stream.substream(0)
        b = base.normals((n, n))
        cov = b @ b.T / n + np.eye(n)
        self.files = {"mean": str(workdir / "mean.txt"), "cov": str(workdir / "cov.txt"),
                      "H": str(workdir / "H.txt"), "R": str(workdir / "R.txt"),
                      "report": str(workdir / "collapse_report.txt")}
        matio.write_matrix(self.files["mean"], base.normals(n))
        matio.write_matrix(self.files["cov"], cov)
        matio.write_matrix(self.files["H"], base.normals((m, n)))
        matio.write_matrix(self.files["R"], shapes["obs_var"] * np.eye(m))
        self.y_paths = []
        for i in range(shapes["step_pool"]):
            path = str(workdir / f"y_{i:03d}.txt")
            matio.write_matrix(path, stream.substream(1 + i).normals(m))
            self.y_paths.append(path)

    def step(self, i: int):
        f = self.files
        return cli.main(["collapse", f["mean"], f["cov"], f["H"], f["R"],
                         self.y_paths[i % len(self.y_paths)], "--k-max", str(self.k_max),
                         "--format", "structured", "--out", f["report"]])

    def check(self, i: int, rc):
        if rc != 0:
            return [f"exit code {rc}"]
        failures = []
        report = read_report(self.files["report"], ("recursive_max_discrepancy",))
        disc = float(report["recursive_max_discrepancy"])
        if not disc <= REL_TOL:
            failures.append(f"recursive_max_discrepancy {disc:.3e}")
        lines = Path(self.files["report"] + ".trace").read_text().splitlines()
        rows = sum(1 for line in lines if line and not line.startswith("#"))
        if rows != self.k_max + 1:
            failures.append(f"trace has {rows} rows, expected {self.k_max + 1}")
        return failures


WORKLOADS = {"ens-cycle": EnsCycle, "audit-corpus": AuditCorpus,
             "kernel-dense": KernelDense, "collapse": Collapse}
