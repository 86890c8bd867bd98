import copy
import json

import numpy as np
import pytest
from conftest import assert_unique_stable_top_pair, spaced_in_random_basis

from lqg_codesign import SimulationDiverged, cli
from lqg_codesign.cli import dumps, load_problem, main
from lqg_codesign.equilibria import Spectrum
from lqg_codesign.plant import Placement


def write_problem(tmp_path, name: str, payload: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SCALAR = {
    "A": [[-1.0]],
    "epsilon": 3.0,
    "delta": 3.0,
    "placement": {"b": [1.0], "c": [1.0]},
    "sim": {"dt": 0.002, "horizon_T": 30.0, "n_paths": 12, "burn_in": 3.0},
    "seed": 5,
}

# dt = 2.5 > 2/|lambda|: an Euler step would diverge, the exact one does not.
COARSE = {
    "A": [[-1.0]],
    "epsilon": 0.0,
    "delta": 0.0,
    "placement": {"b": [1.0], "c": [1.0]},
    "sim": {"dt": 2.5, "horizon_T": 500.0, "n_paths": 4, "burn_in": 0.0},
}

DIAG3 = {
    "A": {"generator": "diag", "eigenvalues": [-1.0, -2.0, -3.0]},
    "epsilon": 0.01,
    "delta": 0.01,
    "flow": {"grad_tol": 1e-12, "max_iters": 20000},
    "seed": 7,
    "n_starts": 3,
}


NAN, INF = float("nan"), float("inf")

NONSYM3 = {
    "A": [[-1.0, 0.2, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, -3.0]],
    "epsilon": 0.5,
    "delta": 0.5,
    "placement": {"b": [1.0, 1.0, 0.0], "c": [0.0, 1.0, 1.0]},
    "sim": {"dt": 0.01, "horizon_T": 20.0, "n_paths": 2, "burn_in": 1.0},
    "flow": {"grad_tol": 1e-9, "max_iters": 10},
}


class TestJsonEmission:
    def test_floats_round_trip_losslessly(self):
        values = [4.0 / 9.0, 1e-300, -1.2345678901234567e17, 0.1, float("nan")]
        text = dumps({"values": values, "n": 3, "ok": True, "name": "x"})
        parsed = json.loads(text)
        for emitted, original in zip(parsed["values"], values):
            if np.isnan(original):
                assert emitted is None
            else:
                assert emitted == original

    def test_arrays_and_nesting(self):
        text = dumps({"m": np.eye(2), "list": [1, 2.5], "none": None})
        parsed = json.loads(text)
        assert parsed["m"] == [[1.0, 0.0], [0.0, 1.0]]


class TestProblemLoading:
    def test_laplacian_generator(self, tmp_path):
        path = write_problem(
            tmp_path,
            "lap.json",
            {
                "A": {
                    "generator": "laplacian",
                    "n": 3,
                    "edges": [[0, 1, 1.0], [1, 2, 2.0]],
                },
                "epsilon": 0.1,
                "delta": 0.1,
            },
        )
        problem = load_problem(path)
        A = problem.plant.A
        assert np.allclose(A, A.T)
        assert np.allclose(A.sum(axis=1), 0.0)
        assert np.all(A - np.diag(np.diag(A)) >= 0.0)  # off-diagonal of -L is +w
        assert np.max(np.linalg.eigvalsh(A)) < 1e-12

    def test_placement_normalized_on_load(self, tmp_path):
        payload = dict(SCALAR)
        payload["placement"] = {"b": [2.0], "c": [-3.0]}
        problem = load_problem(write_problem(tmp_path, "p.json", payload))
        assert abs(np.linalg.norm(problem.placement.b_unit) - 1.0) < 1e-15


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            ("solve", None, "A", [[NAN, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, -3.0]]),
            ("solve", None, "epsilon", NAN),
            ("solve", None, "delta", INF),
            ("solve", "placement", "b", [NAN, 1.0, 0.0]),
            ("solve", "placement", "c", [0.0, INF, 1.0]),
            ("simulate", "sim", "dt", NAN),
            ("simulate", "sim", "horizon_T", INF),
            ("simulate", "sim", "burn_in", NAN),
            ("simulate", "sim", "n_paths", INF),
            ("simulate", "sim", "n_paths", -INF),
            ("simulate", "sim", "seed", INF),
            ("flow", "flow", "grad_tol", NAN),
            ("flow", "flow", "grad_tol", INF),
            ("flow", "flow", "max_iters", INF),
        ],
    )
    def test_problem_error_exit_2(self, tmp_path, capsys, command, section, key, value):
        payload = copy.deepcopy(NONSYM3)
        (payload if section is None else payload[section])[key] = value
        # json.dumps writes NaN and Infinity, and json.loads reads them back.
        problem = write_problem(tmp_path, "nonfinite.json", payload)
        assert main([command, "--problem", problem, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("problem error:")


class TestSolveCommand:
    def test_scalar_chain(self, tmp_path, capsys):
        problem = write_problem(tmp_path, "scalar.json", SCALAR)
        out = tmp_path / "out"
        assert main(["solve", "--problem", problem, "--out", str(out)]) == 0
        report = json.loads((out / "solve.json").read_text())
        assert abs(report["phi"] - 4.0 / 9.0) < 1e-12
        assert abs(report["K"][0][0] - 1.0 / 3.0) < 1e-12
        assert report["pbh"]["stabilizability"]["ok"]

    def test_closed_loop_margins_and_adjoint_residuals(self, tmp_path):
        # K = Sigma = 1/3, so both closed loops are -1 - 3 * 1/3 = -2, and
        # M = N = (1/9) / 4.
        problem = write_problem(tmp_path, "scalar.json", SCALAR)
        out = tmp_path / "out"
        assert main(["solve", "--problem", problem, "--out", str(out)]) == 0
        report = json.loads((out / "solve.json").read_text())
        for loop in ("regulator", "filter"):
            assert abs(report["hurwitz_margins"][loop] - 2.0) < 1e-12
        for adjoint in ("M", "N"):
            assert abs(report[adjoint][0][0] - 1.0 / 36.0) < 1e-14
            assert 0.0 <= report["residuals"][adjoint] <= 1e-11 * (1.0 + 1.0 / 36.0)

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--problem", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["solve", "--problem", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_undetectable_pair_exits_3(self, tmp_path):
        payload = {
            "A": [[1.0, 0.0], [0.0, -1.0]],
            "epsilon": 1.0,
            "delta": 1.0,
            "placement": {"b": [1.0, 0.0], "c": [0.0, 1.0]},
        }
        problem = write_problem(tmp_path, "undet.json", payload)
        assert main(["solve", "--problem", problem, "--out", str(tmp_path / "o")]) == 3

    def test_missing_placement_exits_2(self, tmp_path):
        payload = {k: v for k, v in SCALAR.items() if k != "placement"}
        problem = write_problem(tmp_path, "nopl.json", payload)
        assert main(["solve", "--problem", problem, "--out", str(tmp_path / "o")]) == 2

    def test_deterministic_bytes(self, tmp_path):
        problem = write_problem(tmp_path, "scalar.json", SCALAR)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["solve", "--problem", problem, "--out", str(out1)])
        main(["solve", "--problem", problem, "--out", str(out2)])
        assert (out1 / "solve.json").read_bytes() == (out2 / "solve.json").read_bytes()


class TestFlowCommand:
    def test_descends_to_top_eigenvector(self, tmp_path):
        problem = write_problem(tmp_path, "diag3.json", DIAG3)
        out = tmp_path / "out"
        assert main(["flow", "--problem", problem, "--out", str(out)]) == 0
        report = json.loads((out / "flow.json").read_text())
        b = np.asarray(report["best"]["placement"]["b"])
        assert abs(b[0]) > 1.0 - 1e-6
        assert report["best"]["status"] == "converged"
        assert report["best"]["stability"] == "stable"
        csv_lines = (out / "flow_trace.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "iter,phi,grad_norm,step,b0,b1,b2,c0,c1,c2"
        assert len(csv_lines) == report["best"]["iterations"] + 2

    def test_identical_seed_identical_csv(self, tmp_path):
        problem = write_problem(tmp_path, "diag3.json", DIAG3)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["flow", "--problem", problem, "--out", str(out1)])
        main(["flow", "--problem", problem, "--out", str(out2)])
        assert (out1 / "flow_trace.csv").read_bytes() == (out2 / "flow_trace.csv").read_bytes()

    def test_zero_starts_usage_error(self, tmp_path):
        problem = write_problem(tmp_path, "diag3.json", DIAG3)
        code = main(["flow", "--problem", problem, "--out", str(tmp_path / "o"), "--starts", "0"])
        assert code == 1

    def test_all_starts_failed_exit_4(self, tmp_path):
        payload = {"A": [[1.0, 0.0], [0.0, 1.0]], "epsilon": 1.0, "delta": 1.0, "n_starts": 2}
        problem = write_problem(tmp_path, "unstab.json", payload)
        assert main(["flow", "--problem", problem, "--out", str(tmp_path / "o")]) == 4


class TestEquilibriaCommand:
    def test_two_dim_enumeration(self, tmp_path):
        payload = {
            "A": {"generator": "diag", "eigenvalues": [-1.0, -2.0]},
            "epsilon": 0.0,
            "delta": 0.0,
        }
        problem = write_problem(tmp_path, "diag2.json", payload)
        out = tmp_path / "out"
        assert main(["equilibria", "--problem", problem, "--out", str(out)]) == 0
        report = json.loads((out / "equilibria.json").read_text())
        kinds = [c["kind"] for c in report["candidates"]]
        assert kinds.count("common_support") == 3
        assert kinds.count("disjoint_support") == 2
        assert len(report["stable_indices"]) == 1
        stable = report["candidates"][report["stable_indices"][0]]
        assert stable["support"] == [0]

    def test_n9_spaced_spectrum(self, tmp_path):
        A = spaced_in_random_basis(np.random.default_rng(1901), 9)
        problem = write_problem(
            tmp_path, "spaced9.json", {"A": A.tolist(), "epsilon": 0.0, "delta": 0.0}
        )
        out = tmp_path / "out"
        assert main(["equilibria", "--problem", problem, "--out", str(out)]) == 0
        report = json.loads((out / "equilibria.json").read_text())
        kinds = [c["kind"] for c in report["candidates"]]
        assert kinds.count("common_support") == 518
        assert kinds.count("disjoint_support") == 72
        placements = [
            Placement(np.array(c["placement"]["b"]), np.array(c["placement"]["c"]))
            for c in report["candidates"]
        ]
        verdicts = [c["stability"] for c in report["candidates"]]
        spectrum = Spectrum.from_matrix(np.array(A))
        assert_unique_stable_top_pair(spectrum, placements, verdicts)
        assert report["stable_indices"] == [verdicts.index("stable")]

    def test_dimension_cap_exit_5(self, tmp_path):
        payload = {
            "A": {"generator": "diag", "eigenvalues": [-float(k) for k in range(1, 14)]},
            "epsilon": 0.0,
            "delta": 0.0,
        }
        problem = write_problem(tmp_path, "big.json", payload)
        assert main(["equilibria", "--problem", problem, "--out", str(tmp_path / "o")]) == 5

    def test_laplacian_stable_placement_is_ones_vector(self, tmp_path):
        payload = {
            "A": {
                "generator": "laplacian",
                "n": 4,
                "edges": [[0, 1, 1.0], [1, 2, 0.5], [2, 3, 1.5], [0, 3, 0.7]],
            },
            "epsilon": 0.01,
            "delta": 0.01,
        }
        problem = write_problem(tmp_path, "lap.json", payload)
        out = tmp_path / "out"
        assert main(["equilibria", "--problem", problem, "--out", str(out)]) == 0
        report = json.loads((out / "equilibria.json").read_text())
        assert report["regime"] == "negative_semidefinite_v1_only"
        stable = report["candidates"][report["stable_indices"][0]]
        b = np.asarray(stable["placement"]["b"])
        assert np.allclose(np.abs(b), 0.5, atol=1e-10)  # ones vector over sqrt(4)
        assert stable["stability"] == "stable"


class TestSimulateCommand:
    def test_scalar_report(self, tmp_path):
        problem = write_problem(tmp_path, "scalar.json", SCALAR)
        out = tmp_path / "out"
        assert main(["simulate", "--problem", problem, "--out", str(out)]) == 0
        report = json.loads((out / "simulate.json").read_text())
        assert abs(report["phi_reference"] - 4.0 / 9.0) < 1e-12
        assert abs(report["eta_hat"] - 4.0 / 9.0) < 5.0 * report["stderr"] + 0.01
        assert report["z_score"] is not None
        assert len(report["per_path"]) == 12

    def test_zero_paths_usage_error(self, tmp_path):
        payload = dict(SCALAR)
        payload["sim"] = {"dt": 0.01, "horizon_T": 10.0, "n_paths": 0}
        problem = write_problem(tmp_path, "zero.json", payload)
        assert main(["simulate", "--problem", problem, "--out", str(tmp_path / "o")]) == 1

    def test_coarse_discretization_exit_0(self, tmp_path):
        problem = write_problem(tmp_path, "coarse.json", COARSE)
        out = tmp_path / "o"
        assert main(["simulate", "--problem", problem, "--out", str(out)]) == 0
        report = json.loads((out / "simulate.json").read_text())
        assert None not in report["per_path"]

    def test_simulation_diverged_exit_6(self, tmp_path, monkeypatch):
        def diverged(*args):
            raise SimulationDiverged("4 of 4 paths diverged (over the 10% budget)")

        monkeypatch.setattr(cli, "estimate_eta", diverged)
        problem = write_problem(tmp_path, "coarse.json", COARSE)
        assert main(["simulate", "--problem", problem, "--out", str(tmp_path / "o")]) == 6


class TestVerifyCommand:
    def test_default_suite_passes(self, tmp_path):
        problem = write_problem(tmp_path, "diag3.json", DIAG3)
        out = tmp_path / "out"
        assert main(["verify", "--problem", problem, "--out", str(out)]) == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["all_passed"]

    def test_injected_wrong_sign_fails(self, tmp_path):
        problem = write_problem(tmp_path, "diag3.json", DIAG3)
        code = main(
            [
                "verify",
                "--problem",
                problem,
                "--out",
                str(tmp_path / "o"),
                "--inject-wrong-sign-gradient",
            ]
        )
        assert code == 3

    def test_scalar_suite_trivially_passes(self, tmp_path):
        problem = write_problem(tmp_path, "scalar.json", SCALAR)
        assert main(["verify", "--problem", problem, "--out", str(tmp_path / "o")]) == 0


class TestUsage:
    def test_unknown_command_is_usage_error(self):
        assert main(["bogus"]) == 1

    def test_missing_required_argument(self):
        assert main(["solve"]) == 1


class TestOverridesAndThreads:
    def test_seed_and_starts_overrides(self, tmp_path):
        problem = write_problem(tmp_path, "diag3.json", DIAG3)
        out = tmp_path / "out"
        code = main(
            ["flow", "--problem", problem, "--out", str(out), "--seed", "11", "--starts", "2"]
        )
        assert code == 0
        report = json.loads((out / "flow.json").read_text())
        assert report["seed"] == 11
        assert report["n_starts"] == 2
        assert len(report["starts"]) == 2

    def test_thread_env_does_not_change_results(self, tmp_path, monkeypatch):
        problem = write_problem(tmp_path, "diag3.json", DIAG3)
        out_seq, out_par = tmp_path / "seq", tmp_path / "par"
        monkeypatch.setenv("CODESIGN_THREADS", "0")
        main(["flow", "--problem", problem, "--out", str(out_seq)])
        monkeypatch.setenv("CODESIGN_THREADS", "3")
        main(["flow", "--problem", problem, "--out", str(out_par)])
        assert (out_seq / "flow.json").read_bytes() == (out_par / "flow.json").read_bytes()
        assert (out_seq / "flow_trace.csv").read_bytes() == (out_par / "flow_trace.csv").read_bytes()
