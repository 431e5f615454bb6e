#!/usr/bin/env python3
"""Write every CLI command's output, in both --formats, into OUTDIR.

Seeded inputs go to OUTDIR/inputs; reports, .trace and --save-members
files go to OUTDIR. Two source trees compare byte for byte with:
    PYTHONPATH=old/src python scripts/cli_snapshot.py a
    PYTHONPATH=src python scripts/cli_snapshot.py b && diff -r a b
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from enscgp import cli, matio


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir")
    out = Path(parser.parse_args().outdir)
    (out / "inputs").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(20261018)
    a, b, c = rng.normal(size=(6, 4)), rng.normal(size=(3, 3)), rng.normal(size=(5, 5))
    p = {"mean": rng.normal(size=6), "cov": a @ a.T, "spd": a @ a.T + np.eye(6),
         "H": rng.normal(size=(3, 6)), "R": b @ b.T + np.eye(3), "y": rng.normal(size=3),
         "ens": rng.normal(size=(30, 8)), "H_ens": rng.normal(size=(5, 30)),
         "R_ens": c @ c.T + np.eye(5), "y_ens": rng.normal(size=5),
         "points": rng.uniform(size=(20, 2)),
         # large enough that reports and member files take matio's batch formatter
         "ens_big": rng.normal(size=(300, 24)) * np.logspace(-6, 6, 300)[:, None],
         "H_big": np.eye(300)[::10], "R_big": np.eye(30), "y_big": rng.normal(size=30),
         # a prior whose mean shifts (about 1e200) square to above the largest
         # double, and three points for kernels at extreme variances
         "mean_huge": np.zeros(2), "cov_huge": np.diag([1e300, 1e300]),
         "H_huge": np.array([[1.0, 0.0]]), "R_huge": np.eye(1), "y_huge": np.array([1e200]),
         "points3": np.array([0.1, 0.5, 0.9])}
    # a dense 40x40 R (rank-20 correlated part plus white noise); the enkf
    # perturbations go through its Cholesky factor
    d = rng.normal(size=(40, 20))
    p |= {"ens_dense": rng.normal(size=(12, 10)), "H_dense": rng.normal(size=(40, 12)),
          "R_dense": d @ d.T + np.eye(40), "y_dense": rng.normal(size=40)}
    for name, value in p.items():
        p[name] = str(out / "inputs" / f"{name}.txt")
        matio.write_matrix(p[name], value)
    # the condition inputs laid out by hand: tab separators, CRLF line ends,
    # a comment after the header and blank lines, which only the checked
    # parser reads
    hand = {}
    for name in ("mean", "cov", "H", "R", "y"):
        header, body = Path(p[name]).read_text().split("\n", 1)
        text = f"{header}  # rows cols\n\n" + body.replace(" ", "\t").replace("\n", "\n\n")
        hand[name] = str(out / "inputs" / f"{name}_hand.txt")
        Path(hand[name]).write_bytes(text.replace("\n", "\r\n").encode("ascii"))
    # ens_big (about 151 K characters, three of matio's chunks) with a comment
    # line after data row 200: the reader takes its first and last chunks in
    # bulk and the middle one line by line
    lines = Path(p["ens_big"]).read_text().split("\n")
    lines.insert(202, "# note")
    mixed = str(out / "inputs" / "ens_big_mixed.txt")
    Path(mixed).write_text("\n".join(lines))
    obs, ens = [p["H"], p["R"], p["y"]], [p["ens"], p["H_ens"], p["R_ens"], p["y_ens"]]
    big = [p["ens_big"], p["H_big"], p["R_big"], p["y_big"]]
    dense = [p["ens_dense"], p["H_dense"], p["R_dense"], p["y_dense"]]
    runs = {"condition": ["condition", p["mean"], p["cov"], *obs],
            "condition-hand-formatted": ["condition", *(hand[name] for name in
                                                        ("mean", "cov", "H", "R", "y"))],
            "ens-cgp": ["ens-cgp", *ens],
            "enkf": ["enkf", *ens, "--seed", "3"],
            "enkf-centered": ["enkf", *ens, "--seed", "4", "--center-perturbations"],
            "enkf-unperturbed": ["enkf", *ens, "--disable-perturbations"],
            "ens-cgp-big": ["ens-cgp", *big],
            "ens-cgp-big-mixed": ["ens-cgp", mixed, *big[1:]],
            "enkf-big": ["enkf", *big, "--seed", "7"],
            "enkf-dense-r": ["enkf", *dense, "--seed", "9"],
            "equivalence-seed0": ["equivalence", "--count", "100", "--seed", "0"],
            "equivalence-seed5": ["equivalence", "--count", "100", "--seed", "5"],
            "collapse": ["collapse", p["mean"], p["spd"], *obs, "--k-max", "200"],
            "kl-sample": ["kl-sample", p["points"], "--family", "squared-exponential",
                          "--lengthscale", "0.5", "--modes", "5", "--members", "4"],
            # three modes of a white kernel leave 17 rows of exact zeros
            "kl-sample-white": ["kl-sample", p["points"], "--family", "white",
                                "--modes", "3", "--members", "6"],
            # the energy branch picks the mode count and its residual
            "kl-sample-energy-0.9": ["kl-sample", p["points"], "--family", "exponential",
                                     "--energy", "0.9"],
            "kl-sample-energy-0.5": ["kl-sample", p["points"], "--family", "exponential",
                                     "--energy", "0.5"],
            # norms beyond the range of their squares: the collapse trace's
            # mean shifts and kl-sample's residual, |K|_F^2 over- and underflowing
            "collapse-huge-prior": ["collapse", *(p[f"{name}_huge"] for name in
                                                  ("mean", "cov", "H", "R", "y")),
                                    "--k-max", "3"],
            "kl-sample-linear-1e307": ["kl-sample", p["points3"], "--family", "linear",
                                       "--variance", "1e307"],
            "kl-sample-variance-1e-300": ["kl-sample", p["points3"], "--family",
                                          "exponential", "--variance", "1e-300",
                                          "--energy", "0.5"]}
    failed = 0
    for name, argv in runs.items():
        for fmt in ("text", "structured"):
            stem = out / f"{name}.{fmt}"
            saved = ["--save-members", f"{stem}.members.txt"] if argv[0] == "enkf" else []
            code = cli.main([*argv, "--format", fmt, "--out", f"{stem}.txt", *saved])
            print(f"{name:26s} {fmt:10s} exit {code}")
            failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
