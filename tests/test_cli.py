import argparse
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from enscgp import cli, ensemble, errors, experiments, gaussian, kernels, matio
from enscgp.cli import _fmt_value, main

ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, Exception)] + [np.linalg.LinAlgError]


@pytest.fixture
def scalar_files(tmp_path):
    paths = {}
    for name, value in [("mean", [[0.0]]), ("cov", [[1.0]]), ("H", [[1.0]]),
                        ("R", [[1.0]]), ("y", [[2.0]]), ("y1", [[1.0]])]:
        path = tmp_path / f"{name}.txt"
        matio.write_matrix(path, value)
        paths[name] = str(path)
    return paths


@pytest.fixture
def ensemble_files(tmp_path):
    paths = {}
    for name, value in [("members", [[0.0, 1.0, 2.0, 3.0]]), ("H", [[1.0]]),
                        ("R", [[1.0]]), ("y", [[2.0]])]:
        path = tmp_path / f"{name}.txt"
        matio.write_matrix(path, value)
        paths[name] = str(path)
    return paths


def parse_structured(text):
    pairs = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


def fmt_value(value):
    """A report value's whole text, joined from the pieces cli._fmt_value yields."""
    return "".join(_fmt_value(value))


class TestCondition:
    def test_scalar_report(self, scalar_files, capsys):
        code = main(["condition", scalar_files["mean"], scalar_files["cov"],
                     scalar_files["H"], scalar_files["R"], scalar_files["y"],
                     "--format", "structured"])
        assert code == 0
        pairs = parse_structured(capsys.readouterr().out)
        assert float(pairs["posterior_mean"].strip("[]")) == pytest.approx(1.0)
        assert float(pairs["posterior_cov_eigenvalues"].strip("[]")) == pytest.approx(0.5)
        assert pairs["prior_rank"] == "1"

    def test_report_written_to_file(self, scalar_files, tmp_path):
        out = tmp_path / "report.txt"
        code = main(["condition", scalar_files["mean"], scalar_files["cov"],
                     scalar_files["H"], scalar_files["R"], scalar_files["y"],
                     "--out", str(out)])
        assert code == 0 and out.exists()
        assert "posterior_mean" in out.read_text()


class TestExitCodes:
    @pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_error_classes_map_to_exit_codes(self, error, monkeypatch, capsys):
        """Raised while inputs load, an error exits 2; raised while the
        result is computed, 1. DegenerateModelError, the one class that is
        not a ValueError, is not an input error."""
        argv = ["condition", "mean", "cov", "H", "R", "y"]

        def load(args):
            raise error("at load")

        def compute(args):
            def fail():
                raise error("at compute")
            return fail

        monkeypatch.setitem(cli._RUNNERS, "condition", load)
        if error is errors.DegenerateModelError:
            with pytest.raises(error):
                main(argv)
        else:
            assert main(argv) == 2
            assert capsys.readouterr().err == "input error: at load\n"
        monkeypatch.setitem(cli._RUNNERS, "condition", compute)
        assert main(argv) == 1
        assert capsys.readouterr().err == "computation error: at compute\n"

    def test_missing_file_is_input_error(self, scalar_files, tmp_path, capsys):
        code = main(["condition", str(tmp_path / "nope.txt"), scalar_files["cov"],
                     scalar_files["H"], scalar_files["R"], scalar_files["y"]])
        assert code == 2
        assert "input error" in capsys.readouterr().err

    def test_nan_token_is_input_error(self, scalar_files, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1\nnan\n")
        code = main(["condition", scalar_files["mean"], str(bad), scalar_files["H"],
                     scalar_files["R"], scalar_files["y"]])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_non_spd_noise_is_input_error(self, scalar_files, tmp_path, capsys):
        bad = tmp_path / "badR.txt"
        matio.write_matrix(bad, [[-1.0]])
        code = main(["condition", scalar_files["mean"], scalar_files["cov"],
                     scalar_files["H"], str(bad), scalar_files["y"]])
        assert code == 2

    def test_dimension_mismatch_is_input_error(self, scalar_files, tmp_path, capsys):
        wide = tmp_path / "wideH.txt"
        matio.write_matrix(wide, [[1.0, 0.0]])
        code = main(["condition", scalar_files["mean"], scalar_files["cov"],
                     str(wide), scalar_files["R"], scalar_files["y"]])
        assert code == 2

    def test_computation_error_exit_one(self, scalar_files, tmp_path, capsys):
        # the inputs parse fine, but collapse's restricted precision
        # diag(1/lambda) + k (H U)^T R^(-1) (H U) overflows: (1e200)^2
        h = tmp_path / "H_huge.txt"
        matio.write_matrix(h, [[1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["collapse", scalar_files["mean"], scalar_files["cov"], str(h),
                         scalar_files["R"], scalar_files["y"], "--k-max", "3"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("computation error: restricted precision")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["condition", "ens-cgp", "enkf"])
    def test_overflowing_innovation_is_one_named_computation_error(self, command,
                                                                   tmp_path, capsys):
        # H and the prior are finite, but (H A)(H A)^T and H K H^T overflow
        inputs = {"mean": np.zeros(2), "cov": np.eye(2),
                  "members": [[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 3.0, 2.0]],
                  "H": [[1e300, 1e300]], "R": [[1.0]], "y": [[1.0]]}
        for name, value in inputs.items():
            inputs[name] = str(tmp_path / f"{name}.txt")
            matio.write_matrix(inputs[name], value)
        prior = ([inputs["mean"], inputs["cov"]] if command == "condition"
                 else [inputs["members"]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing from numpy reaches stderr
            assert main([command, *prior, inputs["H"], inputs["R"], inputs["y"]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("computation error: innovation covariance")
        assert err.count("\n") == 1 and "infs or NaNs" in err

    @pytest.mark.parametrize("command, inputs, quantity", [
        # H m overflows while H K H^T + R is finite (_schur_core's mean line)
        ("condition", {"mean": [1e308, 1e308], "cov": 1e-300 * np.eye(2),
                       "H": [[10.0, 10.0]], "R": [[1.0]], "y": [1.0]},
         "data shift y - H m"),
        # y - H m is finite but the shift K H^T (H K H^T + R)^(-1) (y - H m) is not
        ("condition", {"mean": [0.0], "cov": [[1.0]], "H": [[1e-10]], "R": [[1e-300]],
                       "y": [1e300]}, "posterior mean"),
        # zero spread, so a zero gain meets H m = inf (cli's exact mean; the
        # perturbed update after it overflows the same way)
        ("enkf", {"members": [[1e300, 1e300]], "H": [[1e10]], "R": [[1.0]], "y": [1.0]},
         "exact mean update"),
        ("collapse", {"mean": [1e308], "cov": [[1.0]], "H": [[10.0]], "R": [[1.0]],
                      "y": [1.0]}, "data shift y - H m_0"),
        # the means move toward y / H = 3.4e308
        ("collapse", {"mean": [0.0], "cov": [[1.0]], "H": [[0.5]], "R": [[1.0]],
                      "y": [1.7e308]}, "posterior mean"),
        # the mean -5.7e307 is finite and so is each anomaly entry, but
        # 1.7e308 - (-5.7e307) is not; the anomaly's Gram matrix overflows
        ("ens-cgp", {"members": [[1.7e308, -1.7e308, -1.7e308]], "H": [[1.0]],
                     "R": [[1.0]], "y": [1.0]}, "Gram matrix overflows"),
        ("enkf", {"members": [[1.7e308, -1.7e308, -1.7e308]], "H": [[1.0]],
                  "R": [[1.0]], "y": [1.0]}, "Gram matrix overflows"),
    ])
    def test_overflow_is_one_named_computation_error(self, command, inputs, quantity,
                                                     tmp_path, capsys):
        paths = []
        for name, value in inputs.items():
            paths.append(str(tmp_path / f"{name}.txt"))
            matio.write_matrix(paths[-1], value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing from numpy reaches stderr
            assert main([command, *paths]) == 1
        err = capsys.readouterr().err
        assert err.startswith("computation error: ") and err.count("\n") == 1
        assert quantity in err

    @pytest.mark.parametrize("command, members, y, key, mean", [
        # every member is finite but their sum is not
        ("ens-cgp", [[1.5e308, 1.5e308]], [1.0], "prior_mean", 1.5e308),
        ("enkf", [[1.5e308, 1.5e308]], [1.0], "prior_mean", 1.5e308),
        # a unit gain moves both members to about y = 1.7e308: the exact mean
        # is finite, and so is the updated members' mean, though not their sum
        ("enkf", [[0.0, 1.0]], [1.7e308], "updated_sample_mean", 1.7e308),
    ])
    def test_members_whose_sum_overflows_have_a_finite_mean(self, command, members, y,
                                                            key, mean, tmp_path, capsys):
        paths = []
        for name, value in (("members", members), ("H", [[1e-300]]), ("R", [[5e-301]]),
                            ("y", y)):
            paths.append(str(tmp_path / f"{name}.txt"))
            matio.write_matrix(paths[-1], value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, *paths, "--format", "structured"]) == 0
        pairs = parse_structured(capsys.readouterr().out)
        assert float(pairs[key].strip("[]")) == pytest.approx(mean, rel=1e-15)

    @pytest.mark.parametrize("argv, flag", [
        (["collapse", *("ghost.txt",) * 5, "--k-max", "0"], "--k-max"),
        (["collapse", *("ghost.txt",) * 5, "--k-max", "1000001"], "--k-max"),
        (["kl-sample", "ghost.txt", "--family", "exponential", "--members", "0"],
         "--members"),
        (["kl-sample", "ghost.txt", "--family", "exponential", "--modes", "0"],
         "--modes"),
        (["kl-sample", "ghost.txt", "--family", "exponential", "--energy", "0"],
         "--energy"),
        (["kl-sample", "ghost.txt", "--family", "exponential", "--energy", "1.5"],
         "--energy"),
        (["equivalence", "--count", "-1"], "--count"),
        (["equivalence", "--count", "100001"], "--count"),
        (["kl-sample", "ghost.txt", "--family", "exponential", "--members", "10001"],
         "--members"),
        (["kl-sample", "ghost.txt", "--family", "exponential", "--variance", "inf"],
         "variance"),
        (["kl-sample", "ghost.txt", "--family", "exponential", "--variance", "-1"],
         "variance"),
        (["kl-sample", "ghost.txt", "--family", "squared-exponential",
          "--lengthscale", "0"], "lengthscale"),
        (["condition", *("ghost.txt",) * 5, "--seed", "-1"], "--seed"),
        (["ens-cgp", *("ghost.txt",) * 4, "--seed", "-1"], "--seed"),
        (["equivalence", "--seed", "-1"], "--seed"),
        (["collapse", *("ghost.txt",) * 5, "--seed", "-1"], "--seed"),
        (["kl-sample", "ghost.txt", "--family", "exponential", "--seed", "-1"], "--seed"),
        (["enkf", *("ghost.txt",) * 4, "--seed", "-1"], "--seed"),
    ])
    def test_out_of_range_flag_is_input_error(self, argv, flag, capsys):
        # the input files do not exist, so the flag must be checked before any read
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "input error" in err and flag in err

    @pytest.mark.parametrize("command", ["enkf", "condition"])
    def test_unwritable_output_is_output_error(self, command, scalar_files,
                                               ensemble_files, tmp_path, capsys):
        missing = tmp_path / "nodir" / "file.txt"
        if command == "enkf":
            argv = ["enkf", *(ensemble_files[k] for k in ("members", "H", "R", "y")),
                    "--save-members", str(missing)]
        else:
            argv = ["condition", *(scalar_files[k] for k in ("mean", "cov", "H", "R", "y")),
                    "--out", str(missing)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "output error" in err and str(missing) in err

    def test_no_partial_output_on_input_error(self, scalar_files, tmp_path):
        out = tmp_path / "never.txt"
        code = main(["condition", str(tmp_path / "ghost.txt"), scalar_files["cov"],
                     scalar_files["H"], scalar_files["R"], scalar_files["y"],
                     "--out", str(out)])
        assert code == 2 and not out.exists()


class TestDeterminism:
    def test_identical_config_byte_identical_output(self, scalar_files, tmp_path):
        outs = []
        for name in ("one.txt", "two.txt"):
            out = tmp_path / name
            code = main(["condition", scalar_files["mean"], scalar_files["cov"],
                         scalar_files["H"], scalar_files["R"], scalar_files["y"],
                         "--format", "structured", "--seed", "7", "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_enkf_seeded_byte_identical(self, tmp_path):
        members = tmp_path / "members.txt"
        matio.write_matrix(members, np.array([[0.0, 1.0, 2.0, 3.0]]))
        h = tmp_path / "h.txt"
        matio.write_matrix(h, [[1.0]])
        r = tmp_path / "r.txt"
        matio.write_matrix(r, [[1.0]])
        y = tmp_path / "y.txt"
        matio.write_matrix(y, [[2.0]])
        blobs = []
        for name in ("ra.txt", "rb.txt"):
            out = tmp_path / name
            code = main(["enkf", str(members), str(h), str(r), str(y), "--seed", "3",
                         "--format", "structured", "--out", str(out)])
            assert code == 0
            blobs.append(out.read_bytes() + (tmp_path / (name + ".trace")).read_bytes())
        assert blobs[0] == blobs[1]


class TestCollapse:
    def test_k_max_nine_trace_ends_at_tenth(self, scalar_files, tmp_path):
        out = tmp_path / "collapse.txt"
        code = main(["collapse", scalar_files["mean"], scalar_files["cov"],
                     scalar_files["H"], scalar_files["R"], scalar_files["y1"],
                     "--k-max", "9", "--format", "structured", "--out", str(out)])
        assert code == 0
        pairs = parse_structured(out.read_text())
        assert float(pairs["final_spectral_norm"]) == pytest.approx(0.1, rel=1e-12)
        assert pairs["label"] == "double-counting demonstration"
        trace_lines = (tmp_path / "collapse.txt.trace").read_text().strip().splitlines()
        last_k, last_norm, _ = trace_lines[-1].split()
        assert last_k == "9"
        assert float(last_norm) == pytest.approx(0.1, rel=1e-12)


    def test_huge_prior_reports_finite_norms(self, tmp_path):
        # mean shifts of about 1e200 square to above the largest double
        files = []
        for name, value in [("mean", [0.0, 0.0]), ("cov", np.diag([1e300, 1e300])),
                            ("H", [[1.0, 0.0]]), ("R", [[1.0]]), ("y", [1e200])]:
            matio.write_matrix(tmp_path / name, value)
            files.append(str(tmp_path / name))
        out = tmp_path / "collapse.txt"
        code = main(["collapse", *files, "--k-max", "3", "--format", "structured",
                     "--out", str(out)])
        assert code == 0
        pairs = parse_structured(out.read_text())
        assert 0.0 <= float(pairs["recursive_max_discrepancy"]) <= 1e-8
        rows = (tmp_path / "collapse.txt.trace").read_text().strip().splitlines()[1:]
        shifts = [float(row.split()[2]) for row in rows]
        np.testing.assert_allclose(shifts, [0.0, 1e200, 1e200, 1e200], rtol=1e-12)

    @pytest.mark.parametrize("kind", ["rank-deficient", "ensemble", "zero"])
    def test_singular_prior_runs(self, kind, tmp_path):
        rng = np.random.default_rng(5)
        n, m = 6, 2
        if kind == "rank-deficient":
            b = rng.normal(size=(n, 2))
            cov = b @ b.T
        elif kind == "ensemble":
            cov = ensemble.ensemble_stats(ensemble.Ensemble(rng.normal(size=(n, 4)))).covariance
        else:
            cov = np.zeros((n, n))
        files = []
        for name, value in [("mean", rng.normal(size=n)), ("cov", cov),
                            ("H", rng.normal(size=(m, n))), ("R", np.eye(m)),
                            ("y", rng.normal(size=m))]:
            matio.write_matrix(tmp_path / name, value)
            files.append(str(tmp_path / name))
        out = tmp_path / "collapse.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["collapse", *files, "--k-max", "150", "--format", "structured",
                         "--out", str(out)])
        assert code == 0
        pairs = parse_structured(out.read_text())
        assert 0.0 <= float(pairs["recursive_max_discrepancy"]) <= 1e-8
        trace = np.loadtxt(tmp_path / "collapse.txt.trace", ndmin=2)
        assert trace.shape == (151, 3) and np.isfinite(trace).all()
        assert np.all(np.diff(trace[:, 1]) <= 0)

    def test_tiny_prior_with_a_large_mean(self, tmp_path):
        # K_0^(-1) m_0 = 1e300 * 1e9 overflows; the mean shifts do not
        files = []
        for name, value in [("mean", [1e9]), ("cov", [[1e-300]]), ("H", np.zeros((0, 1))),
                            ("R", np.zeros((0, 0))), ("y", np.zeros((0, 1)))]:
            matio.write_matrix(tmp_path / name, value)
            files.append(str(tmp_path / name))
        out = tmp_path / "collapse.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["collapse", *files, "--format", "structured", "--out", str(out)])
        assert code == 0
        pairs = parse_structured(out.read_text())
        assert pairs["final_mean"] == "[1000000000]"
        assert pairs["final_cov"] == "[[1e-300]]"
        trace = np.loadtxt(tmp_path / "collapse.txt.trace", ndmin=2)
        assert trace.shape == (101, 3) and np.isfinite(trace).all()
        np.testing.assert_array_equal(trace[:, 0], np.arange(101))
        assert (trace[:, 2] == 0.0).all()


class TestEquivalence:
    def test_small_corpus_summary(self, capsys):
        code = main(["equivalence", "--count", "6", "--format", "structured"])
        assert code == 0
        pairs = parse_structured(capsys.readouterr().out)
        assert pairs["summary"] == "6/6 pass"
        assert pairs["instance_005_pass"] == "true"

    def test_takes_no_rank_tolerance(self, capsys, monkeypatch):
        """The corpus keeps the default rank rule: --rank-tol is an unknown
        option, and ENSCGP_RANK_TOL, even an invalid one, is not read."""
        with pytest.raises(SystemExit) as exc:
            main(["equivalence", "--count", "1", "--rank-tol", "1e-6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --rank-tol" in capsys.readouterr().err
        monkeypatch.setenv("ENSCGP_RANK_TOL", "nan")
        assert main(["equivalence", "--count", "1", "--format", "structured"]) == 0
        assert parse_structured(capsys.readouterr().out)["summary"] == "1/1 pass"

    def test_count_cap_checked_before_any_instance(self, monkeypatch):
        started = []
        monkeypatch.setattr(experiments, "equivalence_corpus",
                            lambda count, base_seed: started.append(count) or iter(()))
        assert main(["equivalence", "--count", str(experiments.COUNT_CAP + 1)]) == 2
        assert started == []
        assert main(["equivalence", "--count", str(experiments.COUNT_CAP)]) == 0
        assert started == [experiments.COUNT_CAP]


class TestReportValues:
    def test_float_arrays_print_each_value_with_format_float(self):
        values = np.array([[0.0, -0.0, 5e-324], [1.7976931348623157e308, -1.0, 1 / 3]])

        def row(r):
            return "[" + " ".join(matio.format_float(v) for v in r) + "]"

        assert fmt_value(values[0]) == row(values[0])
        assert fmt_value(values) == "[" + row(values[0]) + row(values[1]) + "]"
        assert fmt_value(np.zeros(0)) == "[]"
        assert fmt_value(np.zeros((2, 0))) == "[[][]]"

    @pytest.mark.parametrize("shape", [(1000, 39), (1000,), (0, 3), (3, 0), (0,), (0, 0),
                                       (1, 1), "edges"])
    def test_float_arrays_render_as_split_rows(self, shape):
        """The writer's text with each row's line feed made "][" is the
        text split into rows and each row bracketed."""
        def split_and_join(arr):
            text = "".join(matio._format_text(np.atleast_2d(arr)))
            rows = "".join(f"[{row}]" for row in text.split("\n")[:-1])
            return rows if arr.ndim == 1 else f"[{rows}]"

        if shape == "edges":
            values = np.array([-0.0, 1e300, 5e-324])
            assert fmt_value(values) == "[-0 1.0000000000000001e+300 4.9406564584124654e-324]"
        else:
            rng = np.random.default_rng(sum(shape))
            values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        assert fmt_value(values) == split_and_join(values)

    def test_trace_table_prints_the_per_value_lines(self):
        """An integral k prints as that integer, up to k = 10^6, and each norm
        as its format_float form: the lines a per-value loop printed."""
        rng = np.random.default_rng(6)
        ks = np.unique(np.r_[np.arange(1200), np.geomspace(1, 1e6, 600).round(), 1e6])
        a, b = (rng.normal(size=ks.size) ** 2 * 10.0 ** rng.integers(-300, 300, ks.size)
                for _ in range(2))
        b[:3] = 0.0
        text = "".join(cli._trace_file(argparse.Namespace(out="t"), "# header",
                                       np.column_stack([ks, a, b]))["t.trace"])
        lines = ["# header"] + [f"{int(k)} {matio.format_float(x)} {matio.format_float(y)}"
                                for k, x, y in zip(ks, a, b)]
        assert text == "\n".join(lines) + "\n"
        assert cli._trace_file(argparse.Namespace(out=None), "# header",
                               np.column_stack([ks, a, b])) == {}

    def test_rendering_holds_one_block_not_the_text(self):
        """A report is rendered in the writer's blocks: the tracemalloc peak
        while its pieces are consumed does not grow from a 1000 x 40 factor
        to an 8000 x 40 one, and stays far below the text's size."""
        peaks = []
        for rows in (1000, 8000):
            factor = np.random.default_rng(rows).normal(size=(rows, 40))
            pairs = [("command", "ens-cgp"), ("posterior_mean", factor[:, 0]),
                     ("posterior_cov_factor", factor)]
            fmt_value(factor[:200])  # tables built before measuring
            tracemalloc.start()
            try:
                size = sum(len(piece) for piece in cli._render(pairs, "text"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the 8000-row text is over 6 MB; one block's work is about 1.4 MB
        assert peaks[1] < 1.25 * peaks[0] and peaks[1] < size / 4

    def test_only_float_arrays_are_rendered(self):
        # every array a report carries is a float array: equivalence's
        # descriptor too, whose integers %.17g prints as the same digits
        assert fmt_value(np.array([7.0, 0.0, 100000.0, 42.0])) == "[7 0 100000 42]"
        for values in (np.array([7, 0, -3]), np.array([[1, 2], [3, 4]]),
                       np.array([True, False]), np.zeros((1, 1, 1))):
            with pytest.raises(ValueError, match="cannot format"):
                fmt_value(values)


class TestKlSample:
    def test_samples_written_with_shape(self, tmp_path):
        points = tmp_path / "pts.txt"
        matio.write_matrix(points, np.linspace(0.0, 1.0, 5))
        out = tmp_path / "samples.txt"
        code = main(["kl-sample", str(points), "--family", "squared-exponential",
                     "--variance", "1.0", "--lengthscale", "0.5",
                     "--members", "4", "--seed", "2", "--out", str(out)])
        assert code == 0
        samples = matio.read_matrix(out)
        assert samples.shape == (5, 4)

    def test_seeded_byte_identical(self, tmp_path):
        points = tmp_path / "pts.txt"
        matio.write_matrix(points, np.linspace(0.0, 1.0, 4))
        blobs = []
        for name in ("s1.txt", "s2.txt"):
            out = tmp_path / name
            code = main(["kl-sample", str(points), "--family", "exponential",
                         "--members", "3", "--seed", "11", "--out", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_members_cap_checked_before_sampling(self, tmp_path, monkeypatch):
        points = tmp_path / "pts.txt"
        matio.write_matrix(points, np.linspace(0.0, 1.0, 3))
        drawn = []
        monkeypatch.setattr(kernels, "sample_kl",
                            lambda modes, count, seed: drawn.append(count) or np.zeros((3, 1)))
        argv = ["kl-sample", str(points), "--family", "exponential",
                "--out", str(tmp_path / "s.txt"), "--members"]
        assert main([*argv, str(kernels.MEMBERS_CAP + 1)]) == 2
        assert drawn == [] and not (tmp_path / "s.txt").exists()
        assert main([*argv, str(kernels.MEMBERS_CAP)]) == 0
        assert drawn == [kernels.MEMBERS_CAP]

    def test_points_cap_checked_before_the_gram_matrix(self, tmp_path, monkeypatch, capsys):
        formed = []
        monkeypatch.setattr(kernels, "gram_matrix",
                            lambda spec, points: formed.append(len(points)) or np.eye(2))
        points = tmp_path / "pts.txt"
        argv = ["kl-sample", str(points), "--family", "exponential",
                "--out", str(tmp_path / "s.txt")]
        # one column of integers, so cap + 1 rows are a small file
        matio.write_matrix(points, np.arange(kernels.POINTS_CAP + 1.0)[:, None])
        assert main(argv) == 2
        assert f"1 to {kernels.POINTS_CAP} rows" in capsys.readouterr().err
        assert formed == [] and not (tmp_path / "s.txt").exists()
        matio.write_matrix(points, np.arange(float(kernels.POINTS_CAP))[:, None])
        assert main(argv) == 0
        assert formed == [kernels.POINTS_CAP]

    def test_points_without_rows_are_an_input_error(self, tmp_path, capsys):
        points = tmp_path / "pts.txt"
        points.write_text("0 2\n")
        assert main(["kl-sample", str(points), "--family", "exponential"]) == 2
        assert "got 0" in capsys.readouterr().err

    def test_bad_kernel_parameters_are_input_errors(self, tmp_path, capsys):
        points = tmp_path / "pts.txt"
        matio.write_matrix(points, np.zeros(3))
        code = main(["kl-sample", str(points), "--family", "white",
                     "--variance", "-1.0"])
        assert code == 2


    @staticmethod
    def _three_points(tmp_path):
        points = tmp_path / "pts.txt"
        matio.write_matrix(points, np.array([0.1, 0.5, 0.9]))
        return str(points)

    @pytest.mark.parametrize("family, keep, variance", [
        ("linear", [], "1e307"),  # |K|_F overflows when squared
        ("exponential", ["--energy", "0.5"], "1e-300"),  # |K|_F^2 underflows
    ])
    def test_residual_does_not_depend_on_scale(self, family, keep, variance, tmp_path):
        residuals = []
        for value in ("1", variance):
            out = tmp_path / f"s{value}.txt"
            assert main(["kl-sample", self._three_points(tmp_path), "--family", family,
                         *keep, "--variance", value, "--out", str(out)]) == 0
            comment = out.read_text().splitlines()[1]
            residuals.append(float(comment.rpartition("residual=")[2]))
        assert np.isfinite(residuals).all()
        if family == "linear":  # rank 1: both residuals are round-off
            assert max(residuals) <= 1e-14
        else:
            assert residuals[1] == pytest.approx(residuals[0], rel=1e-12)
            assert residuals[0] > 0.1

    def test_variance_whose_gram_overflows_is_input_error(self, tmp_path, capsys):
        points = self._three_points(tmp_path)
        argv = ["kl-sample", points, "--family", "exponential", "--lengthscale", "1e-308",
                "--out", str(tmp_path / "s.txt")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing from numpy reaches stderr
            assert main([*argv, "--variance", "1e308"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("input error: --variance") and err.count("\n") == 1
            assert not (tmp_path / "s.txt").exists()
            # twice the trace, 3 * variance, must be finite
            assert main([*argv, "--variance", "2.9e307"]) == 0
        assert np.isfinite(matio.read_matrix(tmp_path / "s.txt")).all()

    @pytest.mark.parametrize("family, points, code", [
        ("linear", 1e160, 2), ("exponential", 1e160, 2), ("white", 1e160, 0),
        ("linear", 1e150, 0), ("squared-exponential", 1e150, 0)])
    def test_points_whose_squares_overflow_are_input_errors(self, family, points, code,
                                                            tmp_path, capsys):
        path = tmp_path / "pts.txt"
        matio.write_matrix(path, points * np.array([0.1, 0.5, 0.9]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["kl-sample", str(path), "--family", family,
                         "--variance", "1e-300"]) == code
        if code:
            assert "POINTS too large" in capsys.readouterr().err

    @pytest.mark.parametrize("lengthscale, code", [("1e200", 0), ("1e-160", 0),
                                                   ("1e-200", 2)])
    def test_extreme_squared_exponential_lengthscales(self, lengthscale, code, tmp_path,
                                                      capsys):
        # 2 l^2 overflows to inf (K is all variance), is subnormal, or is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["kl-sample", self._three_points(tmp_path), "--family",
                         "squared-exponential", "--lengthscale", lengthscale]) == code
        out, err = capsys.readouterr()
        assert "nan" not in out and "inf" not in out
        if code:
            assert err.startswith("input error: lengthscale")


class TestEnkfCommand:
    def test_disabled_perturbations_match_exact_update(self, tmp_path):
        members = tmp_path / "members.txt"
        matio.write_matrix(members, np.array([[0.0, 2.0]]))
        for name, value in [("h", [[1.0]]), ("r", [[1.0]]), ("y", [[2.0]])]:
            matio.write_matrix(tmp_path / f"{name}.txt", value)
        out = tmp_path / "report.txt"
        saved = tmp_path / "updated.txt"
        code = main(["enkf", str(members), str(tmp_path / "h.txt"),
                     str(tmp_path / "r.txt"), str(tmp_path / "y.txt"),
                     "--disable-perturbations", "--format", "structured",
                     "--out", str(out), "--save-members", str(saved)])
        assert code == 0
        pairs = parse_structured(out.read_text())
        exact = float(pairs["exact_mean_update"].strip("[]"))
        sample = float(pairs["updated_sample_mean"].strip("[]"))
        assert sample == pytest.approx(exact, abs=1e-13)
        updated = matio.read_matrix(saved)
        assert updated.shape == (1, 2)


class TestRankTolOverrides:
    def test_env_var_default(self, scalar_files, capsys, monkeypatch):
        monkeypatch.setenv("ENSCGP_RANK_TOL", "10.0")  # absurd: zeroes the rank
        code = main(["condition", scalar_files["mean"], scalar_files["cov"],
                     scalar_files["H"], scalar_files["R"], scalar_files["y"],
                     "--format", "structured"])
        assert code == 0
        pairs = parse_structured(capsys.readouterr().out)
        assert pairs["prior_rank"] == "0"
        assert pairs["rank_tol"] == "10"

    def test_flag_overrides_env(self, scalar_files, capsys, monkeypatch):
        monkeypatch.setenv("ENSCGP_RANK_TOL", "10.0")
        code = main(["condition", scalar_files["mean"], scalar_files["cov"],
                     scalar_files["H"], scalar_files["R"], scalar_files["y"],
                     "--rank-tol", "1e-12", "--format", "structured"])
        assert code == 0
        pairs = parse_structured(capsys.readouterr().out)
        assert pairs["prior_rank"] == "1"

    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["condition", "ens-cgp", "enkf"])
    def test_invalid_tolerance_is_input_error(self, command, value, source, scalar_files,
                                              ensemble_files, tmp_path, capsys,
                                              monkeypatch):
        if command == "condition":
            inputs = [scalar_files[k] for k in ("mean", "cov", "H", "R", "y")]
        else:
            inputs = [ensemble_files[k] for k in ("members", "H", "R", "y")]
        out = tmp_path / "never.txt"
        argv = [command, *inputs, "--out", str(out)]
        if source == "flag":
            argv += ["--rank-tol", value]
        else:
            monkeypatch.setenv("ENSCGP_RANK_TOL", value)
        assert main(argv) == 2
        assert "rank tolerance" in capsys.readouterr().err
        assert not out.exists()


def test_enkf_computes_statistics_and_gain_once(ensemble_files, tmp_path, monkeypatch):
    originals = {"ensemble_stats": ensemble.ensemble_stats,
                 "kalman_gain": gaussian.kalman_gain}
    calls = dict.fromkeys(originals, 0)

    def spy(name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return wrapper

    # patch every module that binds either function, wherever it is called from
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "enscgp":
            continue
        for name, original in originals.items():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy(name))
    code = main(["enkf", ensemble_files["members"], ensemble_files["H"],
                 ensemble_files["R"], ensemble_files["y"], "--seed", "3",
                 "--out", str(tmp_path / "report.txt")])
    assert code == 0
    assert calls == {"ensemble_stats": 1, "kalman_gain": 1}


def test_console_entry_point(scalar_files):
    result = subprocess.run(
        [sys.executable, "-m", "enscgp.cli", "condition", scalar_files["mean"],
         scalar_files["cov"], scalar_files["H"], scalar_files["R"],
         scalar_files["y"], "--format", "structured"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "posterior_mean" in result.stdout


def test_parser_reused_across_calls_matches_solo_runs(tmp_path, capsys, monkeypatch):
    """One process runs several commands, a rejected argv and an environment
    override through the same parser; every exit code, message and file
    equals that of the same argv run alone in a fresh process."""
    rng = np.random.default_rng(7)
    c = rng.normal(size=(5, 5))
    inputs = {"members": rng.normal(size=(30, 8)), "H": rng.normal(size=(5, 30)),
              "R": c @ c.T + np.eye(5), "y": rng.normal(size=5),
              "points": rng.uniform(size=(12, 2))}
    for name, value in inputs.items():
        inputs[name] = str(tmp_path / f"{name}.txt")
        matio.write_matrix(inputs[name], value)
    ens = [inputs[k] for k in ("members", "H", "R", "y")]
    runs = [  # (rank-tol environment value or None, argv with {out} for the output dir)
        (None, ["ens-cgp", *ens, "--format", "structured", "--out", "{out}/cgp.txt"]),
        (None, ["kl-sample", inputs["points"], "--family", "squared-exponential",
                "--modes", "3", "--members", "4", "--seed", "5", "--out", "{out}/kl.txt"]),
        (None, ["enkf", *ens, "--seed", "3", "--out", "{out}/enkf.txt",
                "--save-members", "{out}/saved.txt"]),
        (None, ["enkf", *ens, "--seed", "three"]),
        ("10", ["ens-cgp", *ens, "--out", "{out}/cgp_env.txt"]),
        (None, ["ens-cgp", *ens, "--out", "{out}/cgp_no_env.txt"]),
        (None, ["kl-sample", inputs["points"], "--family", "exponential", "--out",
                "{out}/kl_matern.txt"]),
    ]

    def outcome(code, err, out_dir):
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        return code, err, files

    together, alone = [], []
    for i, (env, argv) in enumerate(runs):
        out_dir = tmp_path / f"together_{i}"
        out_dir.mkdir()
        if env is None:
            monkeypatch.delenv("ENSCGP_RANK_TOL", raising=False)
        else:
            monkeypatch.setenv("ENSCGP_RANK_TOL", env)
        try:
            code = main([a.format(out=out_dir) for a in argv])
        except SystemExit as exc:
            code = exc.code
        together.append(outcome(code, capsys.readouterr().err, out_dir))
    monkeypatch.delenv("ENSCGP_RANK_TOL", raising=False)
    for i, (env, argv) in enumerate(runs):
        out_dir = tmp_path / f"alone_{i}"
        out_dir.mkdir()
        result = subprocess.run(
            [sys.executable, "-m", "enscgp.cli", *[a.format(out=out_dir) for a in argv]],
            capture_output=True, text=True,
            env={**os.environ, **({} if env is None else {"ENSCGP_RANK_TOL": env})})
        alone.append(outcome(result.returncode, result.stderr, out_dir))
    assert [code for code, _, _ in together] == [0, 0, 0, 2, 0, 0, 0]
    for i, (mine, solo) in enumerate(zip(together, alone)):
        assert mine == solo, runs[i][1]
    assert together[4][2]["cgp_env.txt"] != together[5][2]["cgp_no_env.txt"]
