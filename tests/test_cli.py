"""End-to-end command-line driver behavior."""

import json
import os

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from spectralr import adapters, cli, inner, solvers


def read_trace_without_elapsed(path):
    with open(path) as fh:
        rows = [line.strip().split(",") for line in fh]
    return [row[:4] + row[5:] for row in rows]


class TestErrors:
    def test_missing_rank_names_flag(self, capsys):
        code = cli.main(["complete", "--synth", "d=5,T=5,r=1,frac=0.5", "--C", "1"])
        assert code == 1
        assert "--rank" in capsys.readouterr().err

    def test_bad_synth_spec_names_flag(self, capsys):
        code = cli.main(["complete", "--synth", "d=5,T=5", "--rank", "1", "--C", "1"])
        assert code == 1
        assert "--synth" in capsys.readouterr().err

    def test_missing_data_file(self, capsys, tmp_path):
        code = cli.main(["complete", "--data", str(tmp_path / "nope.txt"),
                         "--rank", "1", "--C", "1"])
        assert code == 1
        assert "--data" in capsys.readouterr().err

    def test_synth_requires_a_family(self, capsys):
        assert cli.main(["synth"]) == 1

    def test_non_finite_inputs_name_the_flag(self, capsys, tmp_path):
        signal = tmp_path / "y.txt"
        signal.write_text("1.0\nnan\n2.0\n3.0\n")
        assert cli.main(["hankel", "--data", str(signal), "--d", "2", "--T", "3",
                         "--rank", "1", "--C", "1", "-o", str(tmp_path / "h")]) == 1
        assert "--data: y_noisy: non-finite value at index 1" in capsys.readouterr().err
        tasks = tmp_path / "tasks.npz"
        np.savez(tasks, X0=np.ones((2, 3)), y0=np.array([1.0, np.inf]))
        assert cli.main(["mtfl", "--data", str(tasks), "--rank", "1", "--C", "1",
                         "-o", str(tmp_path / "m")]) == 1
        assert "--data: task 0: non-finite" in capsys.readouterr().err


class TestInputBoundary:
    # Bad input files end in "error: <flag>: ..." and exit 1, never a traceback.
    def hankel(self, tmp_path, *flags):
        return cli.main(["hankel", *flags, "--rank", "1", "--C", "1",
                         "-o", str(tmp_path / "h")])

    def mtfl(self, tmp_path, *flags):
        return cli.main(["mtfl", *flags, "--rank", "1", "--C", "1", "-o", str(tmp_path / "m")])

    def test_hankel_missing_file(self, tmp_path, capsys):
        assert self.hankel(tmp_path, "--data", str(tmp_path / "nope.txt"), "--d", "3",
                           "--T", "4") == 1
        assert capsys.readouterr().err.startswith("error: --data: ")

    def test_hankel_non_numeric_file(self, tmp_path, capsys):
        signal = tmp_path / "y.txt"
        signal.write_text("1.0\nabc\n2.0\n")
        assert self.hankel(tmp_path, "--data", str(signal), "--d", "2", "--T", "2") == 1
        assert capsys.readouterr().err.startswith("error: --data: ")

    def test_hankel_two_column_file(self, tmp_path, capsys):
        signal = tmp_path / "y.txt"
        signal.write_text("1.0 2.0\n3.0 4.0\n")
        assert self.hankel(tmp_path, "--data", str(signal), "--d", "2", "--T", "3") == 1
        assert capsys.readouterr().err.startswith("error: --data: need a 1-D y")

    def test_hankel_shape_flags_checked_before_the_file(self, tmp_path, capsys):
        assert self.hankel(tmp_path, "--data", str(tmp_path / "nope.txt")) == 1
        assert capsys.readouterr().err.startswith("error: --d and --T are required")

    def test_mtfl_non_npz_file(self, tmp_path, capsys):
        text = tmp_path / "tasks.txt"
        text.write_text("1 2 3\n")
        assert self.mtfl(tmp_path, "--data", str(text)) == 1
        assert capsys.readouterr().err.startswith("error: --data: cannot read")

    def test_mtfl_npy_file(self, tmp_path, capsys):
        np.save(tmp_path / "x.npy", np.ones((3, 2)))
        assert self.mtfl(tmp_path, "--data", str(tmp_path / "x.npy")) == 1
        assert capsys.readouterr().err.startswith("error: --data: cannot read")

    def test_mtfl_x_without_y(self, tmp_path, capsys):
        np.savez(tmp_path / "tasks.npz", X0=np.ones((3, 2)))
        assert self.mtfl(tmp_path, "--data", str(tmp_path / "tasks.npz")) == 1
        assert capsys.readouterr().err.startswith("error: --data: X0 has no matching y0")

    def complete(self, tmp_path, *flags):
        return cli.main(["complete", *flags, "--rank", "1", "--C", "1",
                         "-o", str(tmp_path / "c")])

    def test_triplet_bad_header(self, tmp_path, capsys):
        path = tmp_path / "train.txt"
        path.write_text("%%3.5 4 1\n1 1 1.0\n")
        assert self.complete(tmp_path, "--data", str(path)) == 1
        assert capsys.readouterr().err.startswith(
            "error: --data: line 1: header needs three nonnegative integers")

    def test_triplet_test_set_dimensions_checked_before_solving(self, tmp_path, capsys,
                                                                monkeypatch):
        train, test = tmp_path / "train.txt", tmp_path / "test.txt"
        train.write_text("1 1 1.0\n2 2 2.0\n3 3 3.0\n")
        test.write_text("%%5 6 1\n5 6 1.0\n")
        monkeypatch.setattr(cli, "_run_solver", lambda *a: pytest.fail("solver ran"))
        assert self.complete(tmp_path, "--data", str(train), "--test-data", str(test)) == 1
        assert capsys.readouterr().err.startswith(
            "error: --test-data: a 5 x 6 matrix does not fit the 3 x 3 training matrix")

    @pytest.mark.parametrize("command, synth, flags, message", [
        ("complete", "d=4,T=5,r=2,frac=0.9", ["--rank", "6", "--C", "10"],
         "--rank: must lie in [1, 4] (the row count d), got 6"),
        ("complete", "d=4,T=5,r=2,frac=0.9", ["--rank", "0", "--C", "10"], "--rank: "),
        ("robust-complete", "d=4,T=5,r=2,frac=0.9", ["--rank", "2", "--C", "-1"],
         "--C: must be positive and finite, got -1.0"),
        ("nn-complete", "d=4,T=5,r=2,frac=0.9,nonneg=1", ["--rank", "2", "--C", "inf"], "--C: "),
        ("complete", "d=4,T=5,r=2,frac=0.9", ["--rank", "2", "--C", "nan"], "--C: "),
        ("complete", "d=4,T=5,r=2,frac=0.9", ["--rank", "2", "--C", "1", "--max-outer", "-1"],
         "--max-outer: must be at least 0, got -1"),
        ("complete", "d=4,T=5,r=2,frac=0.9", ["--rank", "2", "--C", "1", "--inner-iters", "0"],
         "--inner-iters: "),
        ("complete", "d=4,T=5,r=2,frac=0.9", ["--rank", "2", "--C", "1", "--cert-every", "-2"],
         "--cert-every: "),
        ("complete", "d=4,T=5,r=2,frac=0.9", ["--rank", "2", "--C", "1", "--grad-tol", "-1"],
         "--grad-tol: "),
        ("robust-complete", "d=4,T=5,r=2,frac=0.9",
         ["--rank", "2", "--C", "1", "--epsilon", "-0.5"], "--epsilon: "),
        ("hankel", "r0=3,d=10,T=10", ["--rank", "12", "--C", "1"],
         "--rank: must lie in [1, 10] (min(d, T)), got 12"),
        ("hankel", "r0=2,d=12,T=5", ["--rank", "6", "--C", "1"], "--rank: must lie in [1, 5]"),
        ("hankel", "r0=3,d=10,T=10", ["--rank", "2", "--C", "0"], "--C: "),
        ("complete", "d=4,T=5,r=2,frac=0.9", ["--rank", "2", "--C", "1", "--seed", "-1"],
         "--seed: must be nonnegative, got -1"),
        ("complete", "d=4,T=5,r=2,frac=1.5", ["--rank", "2", "--C", "1"],
         "--synth: sample_fraction must be in (0, 1]"),
        ("hankel", "r0=0,d=5,T=5", ["--rank", "1", "--C", "1"], "--synth: order must be >= 1"),
        ("hankel", "r0=3,d=10,T=10,sigma=nan", ["--rank", "2", "--C", "1"],
         "--synth: noise_sigma must be nonnegative and finite, got nan"),
        ("complete", "d=20,T=25,r=2,frac=0.6,sigma=-0.3", ["--rank", "2", "--C", "1"],
         "--synth: noise_sigma must be nonnegative and finite, got -0.3"),
        ("robust-complete", "d=20,T=25,r=2,frac=0.6,outfrac=0.1,outmag=inf",
         ["--rank", "2", "--C", "1"], "--synth: outmag must be finite, got inf"),
        ("robust-complete", "d=20,T=25,r=2,frac=0.6,outfrac=-0.5", ["--rank", "2", "--C", "1"],
         "--synth: outfrac must lie in [0, 1], got -0.5"),
        ("complete", "d=20,T=25,r=2,frac=0.6,outfrac=1.5", ["--rank", "2", "--C", "1"],
         "--synth: outfrac must lie in [0, 1], got 1.5"),
        ("complete", "d=20,T=25,r=2,frac=0.6,outfrac=nan", ["--rank", "2", "--C", "1"],
         "--synth: outfrac must lie in [0, 1], got nan"),
    ])
    def test_numeric_flags_checked_before_solving(self, tmp_path, capsys, monkeypatch,
                                                  command, synth, flags, message):
        monkeypatch.setattr(cli, "_run_solver", lambda *a: pytest.fail("solver ran"))
        assert cli.main([command, "--synth", synth, *flags, "-o", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("flags, message", [
        (["--rank", "4", "--C", "1"], "--rank: must lie in [1, 3] (the feature count), got 4"),
        (["--rank", "1", "--C", "-2"], "--C: "),
        (["--rank", "1", "--C", "1", "--max-outer", "-5"], "--max-outer: "),
    ])
    def test_mtfl_numeric_flags_checked_before_solving(self, tmp_path, capsys, monkeypatch,
                                                       flags, message):
        np.savez(tmp_path / "train.npz", X0=np.ones((4, 3)), y0=np.ones(4))
        monkeypatch.setattr(cli, "_run_solver", lambda *a: pytest.fail("solver ran"))
        assert cli.main(["mtfl", "--data", str(tmp_path / "train.npz"), *flags,
                         "-o", str(tmp_path / "m")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("flags, message", [
        (["--hankel", "r0=0,d=5,T=5"], "--hankel: order must be >= 1"),
        (["--completion", "d=4,T=5,r=2,frac=0"], "--completion: sample_fraction"),
        (["--completion", "d=4,T=5,r=2,frac=0.5", "--seed", "-3"], "--seed: "),
        (["--hankel", "r0=3,d=10,T=10,sigma=nan"], "--hankel: noise_sigma must be "),
        (["--completion", "d=4,T=5,r=2,frac=0.5,sigma=-0.3"], "--completion: noise_sigma "),
    ])
    def test_synth_specs_checked(self, tmp_path, capsys, flags, message):
        assert cli.main(["synth", *flags, "-o", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert list(tmp_path.rglob("*.txt")) == []

    def test_epsilon_only_for_robust_complete(self, tmp_path, capsys):
        assert self.complete(tmp_path, "--synth", "d=4,T=5,r=2,frac=0.9",
                             "--epsilon", "0.1") == 1
        assert capsys.readouterr().err.startswith("error: unrecognized arguments: --epsilon")

    def test_epsilon_rejected_under_l1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_run_solver", lambda *a: pytest.fail("solver ran"))
        assert cli.main(["robust-complete", "--synth", "d=4,T=5,r=2,frac=0.9", "--loss", "l1",
                         "--epsilon", "0.3", "--rank", "2", "--C", "1",
                         "-o", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err.startswith(
            "error: --epsilon: must be 0 under --loss l1, got 0.3")

    def test_epsilon_under_eps_svr_solves(self, tmp_path, capsys):
        out = tmp_path / "r"
        code = cli.main(["robust-complete", "--synth", "d=6,T=8,r=2,frac=0.6",
                         "--loss", "eps-svr", "--epsilon", "0.1", "--rank", "2", "--C", "10",
                         "--max-outer", "20", "-o", str(out)])
        assert code in (0, 2)
        assert "error" not in capsys.readouterr().err
        config = json.loads((out / "summary.json").read_text())["config"]
        assert (config["loss"], config["epsilon"]) == ("eps-svr", 0.1)

    def test_boundary_values_accepted(self, tmp_path, capsys):
        code = cli.main(["complete", "--synth", "d=4,T=5,r=2,frac=0.9", "--rank", "4",
                         "--C", "10", "--max-outer", "0", "--cert-every", "0",
                         "--inner-iters", "1", "--grad-tol", "0", "-o", str(tmp_path / "c")])
        assert code in (0, 2)
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("test_arrays", [
        {"X0": np.ones((2, 3)), "y0": np.ones(2), "X1": np.ones((2, 3)), "y1": np.ones(2),
         "X2": np.ones((2, 3)), "y2": np.ones(2)},
        {"X0": np.ones((2, 4)), "y0": np.ones(2)},
    ], ids=["more_tasks", "other_features"])
    def test_mtfl_test_set_checked_before_solving(self, tmp_path, capsys, monkeypatch,
                                                  test_arrays):
        g = np.random.default_rng(0)
        np.savez(tmp_path / "train.npz", X0=g.standard_normal((4, 3)), y0=g.standard_normal(4),
                 X1=g.standard_normal((5, 3)), y1=g.standard_normal(5))
        np.savez(tmp_path / "test.npz", **test_arrays)
        monkeypatch.setattr(cli, "_run_solver", lambda *a: pytest.fail("solver ran"))
        assert self.mtfl(tmp_path, "--data", str(tmp_path / "train.npz"),
                         "--test-data", str(tmp_path / "test.npz")) == 1
        assert capsys.readouterr().err.startswith("error: --test-data: ")


class TestCompleteRun:
    def test_end_to_end_outputs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = str(tmp_path / "run")
        code = cli.main(["complete", "--synth", "d=20,T=25,r=2,frac=0.6",
                         "--rank", "2", "--C", "1e4", "--solver", "tr",
                         "--cert-every", "5", "--seed", "1", "--max-outer", "80",
                         "--grad-tol", "1e-10", "-o", out])
        assert code == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["schema"] == 1
        assert summary["status"] == "converged"
        assert summary["metric_kind"] == "rmse"
        assert summary["test_metric"] is not None
        assert summary["power_converged"] is True
        assert ", power_converged=true" in capsys.readouterr().out.splitlines()[-1]
        stops = summary["tcg_stops"]
        assert list(stops) == list(solvers.TCG_STOP_REASONS)
        with open(os.path.join(out, "trace.csv")) as fh:
            n_iters = sum(1 for _ in fh) - 2   # header and iteration 0
        assert sum(stops.values()) == n_iters
        assert summary["tcg_steps"] >= n_iters
        env = summary["environment"]
        assert (env["numpy"], env["scipy"]) == (np.__version__, scipy.__version__)
        assert env["OMP_NUM_THREADS"] == "3"
        assert env["MKL_NUM_THREADS"] is None
        assert env["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS")
        assert os.path.exists(os.path.join(out, "trace.csv"))
        assert os.path.exists(os.path.join(out, "model.npz"))
        with open(os.path.join(out, "trace.csv")) as fh:
            header = fh.readline().strip()
        assert header == "iter,g,gradnorm,step,elapsed_s,duality_gap"

    def test_trace_byte_identical_across_runs(self, tmp_path):
        traces = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            code = cli.main(["complete", "--synth", "d=15,T=12,r=2,frac=0.5",
                             "--rank", "2", "--C", "1e3", "--cert-every", "3",
                             "--seed", "7", "--max-outer", "40", "-o", out])
            assert code == 0
            traces.append(read_trace_without_elapsed(os.path.join(out, "trace.csv")))
        assert traces[0] == traces[1]

    def test_numerical_error_exits_2(self, tmp_path, monkeypatch):
        evaluate_g = adapters.CompletionAdapter.evaluate_g
        calls = []

        def nan_on_fifth(self, point):
            calls.append(None)
            g, cert = evaluate_g(self, point)
            return (float("nan") if len(calls) == 5 else g), cert

        monkeypatch.setattr(adapters.CompletionAdapter, "evaluate_g", nan_on_fifth)
        out = str(tmp_path / "run")
        code = cli.main(["complete", "--synth", "d=15,T=12,r=2,frac=0.5",
                         "--rank", "2", "--C", "1e3", "--seed", "7",
                         "--max-outer", "40", "-o", out])
        assert code == 2
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["status"] == solvers.NUMERICAL_ERROR
        assert np.isfinite(summary["g"])

    def test_triplet_data_input(self, tmp_path):
        data_dir = str(tmp_path / "data")
        assert cli.main(["synth", "--completion", "d=12,T=10,r=2,frac=0.6",
                         "--seed", "3", "-o", data_dir]) == 0
        out = str(tmp_path / "run")
        code = cli.main(["complete", "--data", os.path.join(data_dir, "train.txt"),
                         "--test-data", os.path.join(data_dir, "test.txt"),
                         "--rank", "2", "--C", "1e3", "--max-outer", "60", "-o", out])
        assert code == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["test_metric"] < 0.1


class TestSynthCommand:
    def test_hankel_files_deterministic(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert cli.main(["synth", "--hankel", "r0=3,d=12,T=12,sigma=0.05",
                             "--seed", "1", "-o", out]) == 0
            outs.append((open(os.path.join(out, "y_true.txt")).read(),
                         open(os.path.join(out, "y_noisy.txt")).read()))
        assert outs[0] == outs[1]
        y_true = np.loadtxt(os.path.join(str(tmp_path / "a"), "y_true.txt"))
        assert y_true.size == 23

    def test_completion_files_roundtrip(self, tmp_path):
        out = str(tmp_path / "c")
        assert cli.main(["synth", "--completion", "d=8,T=9,r=2,frac=0.5",
                         "--seed", "2", "-o", out]) == 0
        from spectralr.data import load_triplets
        train = load_triplets(os.path.join(out, "train.txt"))
        test = load_triplets(os.path.join(out, "test.txt"))
        assert train.nnz == round(0.5 * 72)
        tr = set(zip(*train.to_coo()[:2]))
        te = set(zip(*test.to_coo()[:2]))
        assert not (tr & te)


class TestCheckCert:
    def test_round_trip_and_threshold(self, tmp_path):
        out = str(tmp_path / "run")
        code = cli.main(["complete", "--synth", "d=20,T=25,r=2,frac=0.6",
                         "--rank", "3", "--C", "1e3", "--seed", "1",
                         "--max-outer", "100", "--grad-tol", "1e-12", "-o", out])
        assert code == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        code = cli.main(["check-cert", out, "--gap-tol", "1e-6"])
        expected = 0 if summary["relative_gap"] <= 1e-6 else 2
        assert code == expected

    def test_hand_built_certificate_agrees_with_library(self, tmp_path, capsys):
        # diag(3, 4) example: sigma1 = 4, gap = (16 - 9)/2 = 3.5
        u = np.array([[1.0], [0.0]])
        m = np.diag([3.0, 4.0])
        cert = inner.DualCertificate(kind="completion", g_value=1.0, m=m, k=u.T @ m, z=None)
        out = str(tmp_path / "model")
        os.makedirs(out)
        cli.save_model(os.path.join(out, "model.npz"), u, cert)
        code = cli.main(["check-cert", out])
        printed = capsys.readouterr().out
        assert code == 2
        gap_line = [ln for ln in printed.splitlines() if ln.startswith("duality_gap=")]
        assert float(gap_line[0].split("=")[1]) == pytest.approx(3.5, abs=1e-9)
        lib = inner.duality_gap(u, cert)
        assert lib.gap == pytest.approx(3.5, abs=1e-9)

    def test_sparse_model_round_trip(self, tmp_path):
        m = sp.csc_matrix((np.array([1.5, -2.0, 0.5]), np.array([0, 2, 1]),
                           np.array([0, 2, 3])), shape=(3, 2))
        u = np.zeros((3, 2))
        u[0, 0] = 1.0
        cert = inner.DualCertificate(kind="completion", g_value=2.0, m=m, k=u.T @ m,
                                     z=None)
        out = str(tmp_path / "model")
        os.makedirs(out)
        cli.save_model(os.path.join(out, "model.npz"), u, cert)
        u2, cert2 = cli.load_model(os.path.join(out, "model.npz"))
        assert np.array_equal(u2, u)
        report_a = inner.duality_gap(u, cert)
        report_b = inner.duality_gap(u2, cert2)
        assert report_a.gap == pytest.approx(report_b.gap, rel=1e-12)

    def test_reads_hand_written_model_files(self, tmp_path, capsys):
        # the model.npz keys as earlier versions wrote them, one sparse and
        # one dense file; check-cert must print the library's gap for both
        u = np.zeros((3, 2))
        u[0, 0], u[1, 1] = 0.6, 0.8
        m = np.array([[1.5, 0.0], [0.0, 0.5], [-2.0, 3.0]])
        sparse_keys = {"m_indices": np.array([0, 2, 1, 2]),
                       "m_values": np.array([1.5, -2.0, 0.5, 3.0]),
                       "m_offsets": np.array([0, 2, 4]), "shape": np.array([3, 2])}
        for name, keys in (("sparse", sparse_keys), ("dense", {"m_dense": m})):
            out = tmp_path / name
            out.mkdir()
            np.savez(out / "model.npz", u=u, kind=np.array("completion"),
                     g_value=np.array(2.0), **keys)
            cli.main(["check-cert", str(out)])
            printed = capsys.readouterr().out
            gap_line = [ln for ln in printed.splitlines() if ln.startswith("duality_gap=")]
            lib = inner.duality_gap(u, inner.DualCertificate(
                kind="completion", g_value=2.0, m=m, k=u.T @ m, z=None))
            assert float(gap_line[0].split("=")[1]) == pytest.approx(lib.gap, rel=1e-12)

    @pytest.mark.parametrize("name, keys", [
        ("u_rows_mismatch", {"u": np.ones((4, 1)) / 2.0, "m_dense": np.eye(3)}),
        ("no_m", {"u": np.ones((4, 1)) / 2.0}),
    ])
    def test_malformed_model_rejected(self, tmp_path, capsys, name, keys):
        np.savez(tmp_path / "model.npz", kind=np.array("completion"),
                 g_value=np.array(1.0), **keys)
        assert cli.main(["check-cert", str(tmp_path)]) == 1
        assert "error: model_dir:" in capsys.readouterr().err

    def test_unconverged_power_iteration_exits_2(self, tmp_path, capsys, monkeypatch):
        # M = diag(3, 0) with U = e_1 has gap 0, well within --gap-tol
        u = np.array([[1.0], [0.0]])
        m = np.diag([3.0, 0.0])
        cert = inner.DualCertificate(kind="completion", g_value=1.0, m=m, k=u.T @ m, z=None)
        cli.save_model(os.path.join(tmp_path, "model.npz"), u, cert)
        assert cli.main(["check-cert", str(tmp_path)]) == 0
        assert "power_converged=true" in capsys.readouterr().out
        monkeypatch.setattr(inner, "top_singular_value_sq", lambda *args: (9.0, False))
        assert cli.main(["check-cert", str(tmp_path)]) == 2
        printed = capsys.readouterr().out
        assert "relative_gap=0" in printed
        assert "power_converged=false" in printed

    def test_lanczos_no_convergence_exits_2(self, tmp_path, capsys, monkeypatch):
        # rank-one M above the dense-Gram size, so sigma1 comes from Lanczos;
        # U = e_1 spans its column space, so the gap is 0
        n = inner.DENSE_SIGMA1_MAX_SIDE + 2
        u = np.eye(n, 1)
        m = sp.csc_matrix(np.outer(u[:, 0], np.linspace(1.0, 2.0, n + 5)))
        cert = inner.DualCertificate(kind="completion", g_value=1.0, m=m, k=u.T @ m, z=None)
        cli.save_model(os.path.join(tmp_path, "model.npz"), u, cert)
        assert cli.main(["check-cert", str(tmp_path)]) == 0
        assert "power_converged=true" in capsys.readouterr().out

        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((n, 0)))

        monkeypatch.setattr(spla, "eigsh", no_convergence)
        assert cli.main(["check-cert", str(tmp_path)]) == 2
        assert "power_converged=false" in capsys.readouterr().out

    @pytest.mark.parametrize("gap_tol", ["nan", "-1", "inf"])
    def test_bad_gap_tol_rejected(self, tmp_path, capsys, gap_tol):
        # the model itself certifies (gap 0), so only the flag can fail
        u = np.array([[1.0], [0.0]])
        m = np.diag([3.0, 0.0])
        cert = inner.DualCertificate(kind="completion", g_value=1.0, m=m, k=u.T @ m, z=None)
        cli.save_model(os.path.join(tmp_path, "model.npz"), u, cert)
        assert cli.main(["check-cert", str(tmp_path), "--gap-tol", gap_tol]) == 1
        assert capsys.readouterr().err.startswith(
            "error: --gap-tol: must be nonnegative and finite, got ")

    def test_corrupted_norm_rejected(self, tmp_path, capsys):
        u = 2.0 * np.eye(2)
        cert = inner.DualCertificate(kind="completion", g_value=1.0, m=np.eye(2), k=u,
                                     z=None)
        out = str(tmp_path / "model")
        os.makedirs(out)
        cli.save_model(os.path.join(out, "model.npz"), u, cert)
        assert cli.main(["check-cert", out]) == 1
        assert "norm" in capsys.readouterr().err


class TestHankelCommand:
    def test_synth_run_reports_true_rmse(self, tmp_path):
        out = str(tmp_path / "h")
        code = cli.main(["hankel", "--synth", "r0=2,d=12,T=12,sigma=0.05",
                         "--rank", "2", "--C", "100", "--seed", "1",
                         "--max-outer", "60", "--inner-iters", "20000", "-o", out])
        assert code == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["test_metric"] < 0.05


class TestMTFLCommand:
    def test_npz_run(self, tmp_path):
        rng = np.random.default_rng(0)
        d, t = 8, 5
        basis = np.linalg.qr(rng.standard_normal((d, 2)))[0]
        train, test = {}, {}
        for i in range(t):
            x = rng.standard_normal((12, d))
            xt = rng.standard_normal((30, d))
            w = basis @ rng.standard_normal(2)
            train[f"X{i}"] = x
            train[f"y{i}"] = x @ w + 0.05 * rng.standard_normal(12)
            test[f"X{i}"] = xt
            test[f"y{i}"] = xt @ w
        np.savez(tmp_path / "train.npz", **train)
        np.savez(tmp_path / "test.npz", **test)
        out = str(tmp_path / "run")
        code = cli.main(["mtfl", "--data", str(tmp_path / "train.npz"),
                         "--test-data", str(tmp_path / "test.npz"),
                         "--rank", "2", "--C", "10", "-o", out])
        assert code == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["metric_kind"] == "nmse"
        assert summary["test_metric"] < 0.05

    def test_standardize_applies_training_statistics_to_test_set(self, tmp_path):
        # The model has no intercept, so test features drawn with another
        # mean and scale are only predicted well when they are shifted and
        # scaled as the training features were.
        rng = np.random.default_rng(0)
        w = rng.standard_normal(6)
        x = rng.standard_normal((40, 6))
        xt = 3.0 * rng.standard_normal((40, 6)) + 5.0
        np.savez(tmp_path / "train.npz", X0=x, y0=x @ w)
        np.savez(tmp_path / "test.npz", X0=xt, y0=xt @ w)
        out = str(tmp_path / "run")
        assert cli.main(["mtfl", "--data", str(tmp_path / "train.npz"),
                         "--test-data", str(tmp_path / "test.npz"), "--standardize",
                         "--rank", "1", "--C", "100", "-o", out]) == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["test_metric"] < 0.05
