import collections
import copy
import dataclasses
import functools
import json
import re
import warnings

import numpy as np
import pytest
from conftest import assert_unique_stable_top_pair, spaced_in_random_basis
from json_oracle import dumps as oracle_dumps

from lqg_codesign import SimulationDiverged, cli, cost, flow, riccati, simulate
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


_MAX = 1.7976931348623157e308
_MATRIX = np.arange(12.0).reshape(3, 4) / 7.0


_Pair = collections.namedtuple("_Pair", "first second")


class _Text(str):
    pass


def _row(i: int) -> dict:
    """A row shaped like an equilibrium candidate of the equilibria report."""
    return {
        "kind": "common_support",
        "support": (0, 1),
        "sign_s": (1, -1, 0),
        "xi": (0.5 / (i + 1), 0.25),
        "placement": {"b": np.array([0.5, 0.75, i / 7.0]), "c": np.array([-0.0, 1.0, 0.1])},
        "stability": "saddle",
        "hessian_eigs": (i / 3.0, -1e-300, 2.0),
    }


# Objects on which ``cli.dumps`` must write the bytes of the element-wise
# emitter: extreme and integral floats, non-finite entries, empty and
# degenerate shapes, other dtypes, views, numpy scalars and mixed lists.
_EMITTER_CASES = {
    "extreme_floats": np.array([-0.0, 5e-324, _MAX, -_MAX, 2.0, -3.0, 0.1]),
    "extreme_float_list": [-0.0, 5e-324, _MAX, -_MAX, 2.0, 1e16, 1e17],
    "extreme_float_tuple": (2.0, -0.0, 0.1),
    "scalars": [np.float64(-0.0), 2.0, np.float32(0.1), float("nan")],
    "nan_in_array": np.array([[1.0, np.nan], [2.5, 3.0]]),
    "finite_3x4": _MATRIX,
    # A bitwise symmetric matrix formats its upper triangle once.
    "symmetric": _MATRIX[:, :3] @ _MATRIX[:, :3].T,
    "symmetric_but_signed_zero": np.array([[1.0, 0.0, 2.5], [-0.0, 3.0, 0.1], [2.5, 0.1, -4.0]]),
    "symmetric_1x1": np.array([[0.1]]),
    "symmetric_with_nan": np.array([[1.0, np.nan], [np.nan, 2.0]]),
    "nan_in_one_row": np.where(np.arange(12).reshape(3, 4) == 6, np.nan, _MATRIX),
    "inf_in_array": np.array([np.inf, 1.0, -np.inf]),
    "inf_in_list": [1.0, float("inf"), 2.0],
    "shape_0": np.zeros(0),
    "shape_0x3": np.zeros((0, 3)),
    "shape_3x0": np.zeros((3, 0)),
    "shape_1xn": np.linspace(-1.0, 1.0, 5)[None, :],
    "shape_nx1": np.linspace(-1.0, 1.0, 5)[:, None],
    "shape_1x1": np.array([[-0.0]]),
    "three_d": np.arange(24.0).reshape(2, 3, 4) / 3.0,
    "zero_d": np.array(0.25),
    "float32": (_MATRIX / 3.0).astype(np.float32),
    "int_array": np.arange(6).reshape(2, 3),
    "bool_array": np.array([True, False]),
    "transposed": _MATRIX.T,
    "strided": _MATRIX[::2, ::-3],
    "column_view": _MATRIX[:, 1],
    "float64_in_tuple": (np.float64(0.1), np.float64(2.0)),
    "mixed_list": [1.5, 2, True, None, np.int64(3), "x"],
    "bool_and_int_lists": [[True, False], [1, 2], []],
    "big_int_list": [10**17, -(10**20), 3],
    "empty": [],
    # Lists of dicts: each row fills its shape's template.
    "rows_2": [_row(0), _row(1)],
    "rows_300": [_row(i) for i in range(300)],
    # Rows that differ from their neighbours in one leaf.
    "rows_xi_none": [_row(0), {**_row(1), "xi": None}, _row(2)],
    "rows_nan_in_one_array": [
        _row(0),
        {**_row(1), "placement": {"b": np.array([0.5, np.nan, 0.25]), "c": np.ones(3)}},
        _row(2),
    ],
    "rows_int_for_float": [{"v": 1.5, "w": 0.5}, {"v": 2, "w": 0.5}, {"v": 1.5, "w": 0.5}],
    "rows_bool_for_int": [{"v": 1, "n": 3}, {"v": True, "n": 3}, {"v": 1, "n": 3}],
    "rows_big_ints_and_bools": [
        {"n": 10**17, "ids": (10**18, -3), "flags": (1, 0)},
        {"n": 2, "ids": (1, 2), "flags": (True, 0)},
    ],
    "rows_tuple_one_longer": [_row(0), {**_row(1), "support": (0, 1, 2)}, _row(2)],
    "rows_escapes": [
        {"100% \"done\"": "50% \"half\" é 東", "ü%s": 0.5, "%d": "%%"},
        {"100% \"done\"": "%s%d", "ü%s": -0.0, "%d": "ok"},
    ],
    "rows_nested": [{"k": 1, "rows": [_row(0), _row(1)]}, {"k": 2, "rows": [_row(2)]}],
    # Subclasses of dict, tuple and str, read as their base type.
    "rows_ordered_dict": [
        collections.OrderedDict([("z", 0.5), ("a", (1, 2))]),
        {"z": 0.5, "a": (1, 2)},
    ],
    "rows_namedtuple": [_Pair(0.5, "x"), _Pair(2, (0.25, None))],
    "str_subclass": [_Text('50% "half" \u00e9'), {"k": _Text("v")}],
    "dicts_and_scalars": [{"a": 1.5}, 2.0, "s", None, {"a": 2.5}, [{"b": float("nan")}], True],
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

    @pytest.mark.parametrize("obj", _EMITTER_CASES.values(), ids=_EMITTER_CASES.keys())
    def test_same_bytes_as_the_element_wise_emitter(self, obj):
        for indent in (0, 2, 6):
            assert dumps(obj, indent) == oracle_dumps(obj, indent)
        nested = {"outer": {"inner": [obj, {"again": obj}], "empty": {}}}
        assert dumps(nested) == oracle_dumps(nested)

    def test_same_bytes_on_random_matrices(self):
        rng = np.random.default_rng(2023)
        for _ in range(50):
            shape = tuple(rng.integers(1, 7, size=rng.integers(1, 3)))
            x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
            report = {"x": x, "rows": x.tolist()}
            assert dumps(report) == oracle_dumps(report)

    @pytest.mark.parametrize("value", [np.bool_(True), object()], ids=["numpy_bool", "object"])
    def test_a_value_json_cannot_hold_raises_the_oracles_error(self, value):
        obj = {"rows": [{"v": 1.0}, {"v": [value]}]}
        with pytest.raises(TypeError) as expected:
            oracle_dumps(obj)
        with pytest.raises(TypeError, match=f"^{re.escape(str(expected.value))}$"):
            dumps(obj)

    def test_a_finite_matrix_is_one_call(self, tmp_path, monkeypatch):
        # dumps is entered once per report: nothing in it calls it again.
        calls = []
        original = cli.dumps

        def counted(obj, indent=0):
            calls.append(type(obj))
            return original(obj, indent)

        monkeypatch.setattr(cli, "dumps", counted)
        for command, payload in (("solve", NONSYM3), ("equilibria", DIAG3)):
            problem = write_problem(tmp_path, f"{command}.json", payload)
            assert main([command, "--problem", problem, "--out", str(tmp_path / command)]) == 0
        assert calls == [dict, dict]

    def test_one_template_per_row_shape(self, monkeypatch):
        # 300 rows of two shapes, interleaved: two row templates, not 300.
        template, built = cli._template, []

        def counted(shape, indent):
            built.append(shape)
            return template(shape, indent)

        monkeypatch.setattr(cli, "_item_template", functools.lru_cache(maxsize=1024)(counted))
        rows = [_row(i) if i % 3 else {**_row(i), "xi": None} for i in range(300)]
        text = dumps({"candidates": rows})
        assert len(built) == 2 and all(shape[1] == ("kind", "s") for shape in built)
        assert text == oracle_dumps({"candidates": rows})

    def test_equilibria_report_has_the_element_wise_bytes(self, tmp_path):
        A = spaced_in_random_basis(np.random.default_rng(8), 8)
        problem = write_problem(
            tmp_path, "spaced8.json", {"A": A.tolist(), "epsilon": 0.0, "delta": 0.0}
        )
        out = tmp_path / "out"
        assert main(["equilibria", "--problem", problem, "--out", str(out)]) == 0
        report = cli.cmd_equilibria(load_problem(problem), None)
        assert report["n_candidates"] == 315
        text = oracle_dumps(report) + "\n"
        assert (out / "equilibria.json").read_text() == text


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

    def test_a_placement_whose_norm_overflows_solves(self, tmp_path, capsys):
        # |b|^2 overflows, b itself does not: it loads as (1, 1) / sqrt(2).
        payload = {
            "A": [[-1.0, 0.0], [0.0, -2.0]],
            "epsilon": 0.5,
            "delta": 0.5,
            "placement": {"b": [1e308, 1e308], "c": [1.0, 0.5]},
        }
        problem = write_problem(tmp_path, "huge.json", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--problem", problem, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "out" / "solve.json").read_text())
        assert report["placement"]["b"] == pytest.approx([0.5**0.5] * 2, rel=4e-16)


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
            # an unknown key, such as the retired field switch, is an error
            ("flow", "flow", "rescaled", True),
            # the seed is the problem's (or --seed), never a sim key
            ("simulate", "sim", "seed", 0),
            ("solve", None, "A", 3.0),
            ("solve", None, "A", {"generator": "circulant", "n": 3}),
            ("solve", None, "A", {"generator": "diag"}),
            ("solve", None, "A", {"generator": "diag", "eigenvalues": []}),
            ("solve", None, "A", {"generator": "laplacian", "n": 0, "edges": []}),
            ("solve", None, "A", {"generator": "laplacian", "n": 2.5, "edges": []}),
            ("solve", None, "A", {"generator": "laplacian", "n": 3, "edges": "ring"}),
            ("solve", None, "A", {"generator": "laplacian", "n": 3, "edges": [[0, 1]]}),
            ("solve", None, "A", {"generator": "laplacian", "n": 3, "edges": [[0, 3, 1.0]]}),
            ("solve", None, "A", {"generator": "laplacian", "n": 3, "edges": [[1, 1, 1.0]]}),
            ("solve", None, "A", {"generator": "laplacian", "n": 3, "edges": [[0, 1, -1.0]]}),
            ("solve", None, "placement", {"b": [1.0, 0.0, 0.0]}),
            ("solve", None, "placement", [1.0, 0.0, 0.0]),
            ("solve", None, "placement", {"b": [1.0, 0.0], "c": [0.0, 1.0]}),
            ("flow", None, "flow", [1e-9, 10]),
            ("simulate", None, "sim", "fine"),
            ("solve", None, "seed", -1),
            ("solve", None, "seed", 1.5),
            ("flow", None, "n_starts", 2.5),
            # endpoints and n are JSON integers: no float is truncated, no bool read as 0/1
            ("solve", None, "A", {"generator": "laplacian", "n": 3, "edges": [[0.6, 1, 1.0], [1, 2.9, 1.0]]}),
            ("solve", None, "A", {"generator": "laplacian", "n": 3, "edges": [[0, True, 1.0], [1, 2, 1.0]]}),
            ("solve", None, "A", {"generator": "laplacian", "n": True, "edges": []}),
            # so are the counts; a non-integer n_paths is not "too few paths" (exit 1)
            ("simulate", "sim", "n_paths", 2.7),
            ("simulate", "sim", "n_paths", 0.5),
            ("simulate", "sim", "n_paths", True),
            ("flow", "flow", "max_iters", 2.9),
            ("flow", "flow", "max_iters", True),
            ("solve", None, "seed", True),
            ("flow", None, "n_starts", True),
            # and the reals are JSON numbers: no bool read as 0/1, no string parsed
            ("solve", None, "epsilon", True),
            ("solve", None, "delta", "0.5"),
            ("flow", "flow", "grad_tol", True),
            ("simulate", "sim", "dt", "0.01"),
            ("simulate", "sim", "horizon_T", "20.0"),
            ("simulate", "sim", "burn_in", "1"),
            ("solve", None, "A", {"generator": "laplacian", "n": 3, "edges": [[0, 1, True], [1, 2, 1.0]]}),
            ("solve", None, "A", {"generator": "laplacian", "n": 3, "edges": [[0, 1, "1.5"], [1, 2, 1.0]]}),
            # and so is every entry of an array
            ("solve", None, "A", [[True, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, -3.0]]),
            ("solve", None, "A", {"generator": "diag", "eigenvalues": ["-1.5", -2.0, -3.0]}),
            ("solve", "placement", "b", [True, "0.5", 0.0]),
            ("solve", "placement", "c", [0.0, "1", 1.0]),
            # a vector is a flat list, and A a list of rows
            ("solve", None, "A", {"generator": "diag", "eigenvalues": [[-1.0, -2.0]]}),
            ("solve", "placement", "b", [[1, 0], [0, 1]]),
            ("solve", "placement", "b", [[1.0, 1.0, 0.0]]),
            ("solve", "placement", "c", 1.0),
            ("solve", None, "A", [-1.0, -2.0, -3.0]),
            ("solve", None, "A", [[[-1.0]]]),
            # an integer too large for a float, a step count that overflows,
            # and one above simulate.MAX_STEPS
            ("solve", "placement", "b", [10**400, 1.0, 0.0]),
            ("simulate", "sim", "dt", 1e-320),
            ("simulate", "sim", "horizon_T", 1e300),
            # a misspelled key, which used to leave its value at the default
            ("solve", None, "epsillon", 1.0),
            ("flow", None, "n_start", 4),
            ("solve", "placement", "d", [1.0, 0.0, 0.0]),
            ("solve", None, "A", {"generator": "diag", "eigenvalues": [-1.0, -2.0, -3.0], "n": 3}),
            ("solve", None, "A", {"generator": "laplacian", "n": 3, "edges": [], "weights": []}),
        ],
    )
    def test_problem_error_exit_2(self, tmp_path, capsys, command, section, key, value):
        payload = copy.deepcopy(NONSYM3)
        (payload if section is None else payload[section])[key] = value
        # json.dumps writes NaN and Infinity, and json.loads reads them back.
        problem = write_problem(tmp_path, "nonfinite.json", payload)
        assert main([command, "--problem", problem, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("problem error:")

    @pytest.mark.parametrize(
        "payload, message",
        [
            (
                {"A": {"generator": "diag", "eigenvalues": [[-1.0, -2.0]]}},
                "'eigenvalues' must be a list of numbers",
            ),
            (
                {"A": {"generator": "diag", "eigenvalues": [-1.0, -2.0, -3.0, -4.0]},
                 "placement": {"b": [[1, 0], [0, 1]], "c": [1, 0, 0, 0]}},
                "'b' must be a list of numbers",
            ),
            ({"A": [[-1.0, 0.0], -2.0]}, "'A' must be a list of rows of numbers"),
        ],
        ids=["diag_row", "b_matrix", "A_row_and_number"],
    )
    def test_an_array_of_the_wrong_rank_exits_2(self, tmp_path, capsys, payload, message):
        # np.diag of a 1x2 array takes its diagonal, and a 2x2 b flattens to a
        # 4-vector: both used to solve as some other problem.
        problem = write_problem(tmp_path, "rank.json", {**payload, "epsilon": 1.0, "delta": 1.0})
        command = "solve" if "placement" in payload else "equilibria"
        assert main([command, "--problem", problem, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"problem error: {message}\n"

    def test_a_bool_deep_inside_a_large_matrix_exits_2(self, tmp_path, capsys):
        A = (np.eye(50) - 2.0 * np.ones((50, 50)) / 50).tolist()
        A[37][41] = True
        placement = {"b": [1.0] * 50, "c": [0.5] * 50}
        payload = {"A": A, "epsilon": 1.0, "delta": 1.0, "placement": placement}
        problem = write_problem(tmp_path, "bool50.json", payload)
        assert main(["solve", "--problem", problem, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "problem error: 'A' must hold only numbers\n"

    def test_a_misspelled_gain_exits_2(self, tmp_path, capsys):
        # "epsillon" used to be ignored, which solved the zero-gain problem.
        payload = {k: v for k, v in NONSYM3.items() if k != "epsilon"}
        problem = write_problem(tmp_path, "typo.json", {**payload, "epsillon": 1.0})
        assert main(["solve", "--problem", problem, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "problem error: unknown key 'epsillon' in the problem file\n"
        )

    @pytest.mark.parametrize(
        "payload", [[NONSYM3], {k: v for k, v in NONSYM3.items() if k != "A"}]
    )
    def test_a_list_or_a_file_without_a_exits_2(self, tmp_path, capsys, payload):
        problem = write_problem(tmp_path, "not_a_problem.json", payload)
        assert main(["solve", "--problem", problem, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("problem error:")


class TestCheckedOnLoad:
    """Every value of a problem file is checked by ``load_problem``, whatever
    the command; --seed and --starts are checked by the parser."""

    @pytest.mark.parametrize(
        "command, changes, err",
        [
            ("solve", {"sim": {"dt": -1}}, "invalid sim config: dt must be positive"),
            ("solve", {"flow": {"grad_tol": -1}},
             "invalid flow options: grad_tol must be positive and finite"),
            ("flow", {"n_starts": 0}, "'n_starts' must be at least 1"),
            ("solve", {"n_starts": 0}, "'n_starts' must be at least 1"),
            ("simulate", {"sim": {"n_paths": 0}},
             "invalid sim config: n_paths must be at least 1"),
            ("simulate", {"sim": {"dt": -1}}, "invalid sim config: dt must be positive"),
            ("solve", {"seed": -1}, "'seed' must be a nonnegative integer"),
        ],
    )
    def test_a_bad_file_value_exits_2(self, tmp_path, capsys, command, changes, err):
        problem = write_problem(tmp_path, "bad.json", {**SCALAR, **changes})
        assert main([command, "--problem", problem, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"problem error: {err}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flag, value, err",
        [
            ("--seed", "-1", "--seed must be nonnegative"),
            ("--starts", "0", "--starts must be at least 1"),
            ("--starts", "two", "invalid integer value: 'two'"),
        ],
    )
    def test_a_bad_flag_exits_1(self, tmp_path, capsys, flag, value, err):
        problem = write_problem(tmp_path, "scalar.json", SCALAR)
        argv = ["solve", "--problem", problem, "--out", str(tmp_path / "o"), flag, value]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"usage error: argument {flag}: {err}\n"

    def test_the_flags_stand_in_for_the_file_values_before_the_check(self, tmp_path):
        problem = write_problem(tmp_path, "p.json", {**SCALAR, "seed": -1, "n_starts": 0})
        loaded = load_problem(problem, seed=9, n_starts=2)
        assert (loaded.seed, loaded.n_starts, loaded.sim_config.seed) == (9, 2, 9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            loaded.seed = 10

    def test_the_sim_config_takes_the_file_over_the_defaults(self, tmp_path):
        problem = write_problem(tmp_path, "p.json", {**SCALAR, "sim": {"dt": 1, "n_paths": 3}})
        config = load_problem(problem).sim_config
        assert config == simulate.SimConfig(1.0, 100.0, 3, 10.0, SCALAR["seed"])
        assert type(config.dt) is float


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

    def test_pbh_section_from_the_gain_pairs_tests(self, tmp_path, monkeypatch):
        # gain_pair keeps the two PBH reports it required to pass, and the
        # "pbh" section is written from them: no test runs twice.
        payload = {
            "A": [[0.2, 1.0, 0.0], [-1.0, 0.2, 0.0], [0.0, 0.3, -1.0]],
            "epsilon": 1.0,
            "delta": 1.0,
            "placement": {"b": [1.0, 0.5, 0.2], "c": [0.3, 1.0, 1.0]},
        }
        problem = write_problem(tmp_path, "unstable.json", payload)
        modes, original = [], riccati.pbh_check

        def counted(A, v, mode, **kwargs):
            modes.append(mode)
            return original(A, v, mode, **kwargs)

        monkeypatch.setattr(riccati, "pbh_check", counted)
        monkeypatch.setattr(cli, "pbh_check", counted)
        assert main(["solve", "--problem", problem, "--out", str(tmp_path / "o")]) == 0
        assert modes == ["stabilizability", "detectability"]

        loaded = load_problem(problem)
        plant, placement = loaded.plant, loaded.placement
        expected = {}
        for mode, v in (
            ("stabilizability", placement.b_unit),
            ("detectability", placement.c_unit),
        ):
            rep = original(plant.A, v, mode, setup=plant.pbh)
            tested = [
                {"eigenvalue_re": lam.real, "eigenvalue_im": lam.imag, "margin": margin}
                for lam, margin in rep.tested
            ]
            expected[mode] = {"ok": rep.ok, "min_margin": rep.min_margin, "tested": tested}
        report = json.loads((tmp_path / "o" / "solve.json").read_text())
        assert len(report["pbh"]["stabilizability"]["tested"]) == 2
        assert report["pbh"] == json.loads(dumps(expected))

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

    def test_trace_rows_hold_the_iterates(self, tmp_path):
        # Row k is k and "%.17g" of each value of the best start's iterate k.
        problem = write_problem(tmp_path, "nonsym3.json", NONSYM3)
        out = tmp_path / "out"
        assert main(["flow", "--problem", problem, "--out", str(out)]) == 0
        loaded = load_problem(problem)
        best = flow.multi_start(
            loaded.plant, loaded.n_starts, loaded.seed, loaded.flow_options
        ).best
        rows = []
        for k, it in enumerate(best.iterates):
            values = (it.phi, it.grad_norm, it.step, *it.placement.b_unit, *it.placement.c_unit)
            rows.append(",".join([str(k)] + ["%.17g" % x for x in values]))
        assert len(rows) > 2
        assert (out / "flow_trace.csv").read_text().splitlines()[1:] == rows

    def test_identical_seed_identical_csv(self, tmp_path):
        problem = write_problem(tmp_path, "diag3.json", DIAG3)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["flow", "--problem", problem, "--out", str(out1)])
        main(["flow", "--problem", problem, "--out", str(out2)])
        assert (out1 / "flow_trace.csv").read_bytes() == (out2 / "flow_trace.csv").read_bytes()

    def test_counters_per_start_and_for_best(self, tmp_path):
        problem = write_problem(tmp_path, "diag3.json", DIAG3)
        out = tmp_path / "out"
        assert main(["flow", "--problem", problem, "--out", str(out)]) == 0
        report = json.loads((out / "flow.json").read_text())
        for entry in report["starts"] + [report["best"]]:
            counters = entry["counters"]
            assert counters["swallowed_errors"] == 0
            assert counters["evaluations"] == entry["iterations"] + 1 + counters["backtracks"]
            assert counters["modal_fallbacks"] == 0
            assert counters["last_modal_fallback"] is None

    def test_best_start_is_not_solved_again(self, tmp_path, monkeypatch):
        # The best start is analysed on the descent's own last evaluation:
        # every gain pair solved is one of the counted evaluations.
        real, calls = riccati.gain_pair, []

        def counted(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(riccati, "gain_pair", counted)
        monkeypatch.setattr(cost, "gain_pair", counted)
        problem = write_problem(tmp_path, "diag3.json", DIAG3)
        out = tmp_path / "out"
        assert main(["flow", "--problem", problem, "--out", str(out)]) == 0
        starts = json.loads((out / "flow.json").read_text())["starts"]
        assert len(calls) == sum(s["counters"]["evaluations"] for s in starts)

    def test_unclassifiable_best_start_gets_a_note(self, tmp_path):
        # One step does not reach an equilibrium: the run still succeeds,
        # and the best start says why it has no stability verdict.
        problem = write_problem(tmp_path, "diag3.json", {**DIAG3, "flow": {"max_iters": 1}})
        out = tmp_path / "out"
        assert main(["flow", "--problem", problem, "--out", str(out)]) == 0
        best = json.loads((out / "flow.json").read_text())["best"]
        assert best["status"] == "max_iters" and best["stability"] is None
        assert "hessian_eigs" not in best
        assert best["note"].startswith("residuals [")
        assert best["note"].endswith("exceed tolerance 1e-06")

    def test_zero_starts_usage_error(self, tmp_path):
        problem = write_problem(tmp_path, "diag3.json", DIAG3)
        code = main(["flow", "--problem", problem, "--out", str(tmp_path / "o"), "--starts", "0"])
        assert code == 1

    def test_failed_start_reports_its_error(self, tmp_path, monkeypatch):
        # The first start draws no PBH-passing placement; only it gets "error".
        real = flow.pbh_passing_placement
        calls = []

        def first_fails(*args):
            calls.append(None)
            return None if len(calls) == 1 else real(*args)

        monkeypatch.setattr(flow, "pbh_passing_placement", first_fails)
        results = []

        def recorded(*args):
            results.append(flow.multi_start(*args))
            return results[-1]

        monkeypatch.setattr(cli, "multi_start", recorded)
        problem = write_problem(tmp_path, "diag3.json", DIAG3)
        out = tmp_path / "out"
        assert main(["flow", "--problem", problem, "--out", str(out)]) == 0
        # A start that never had a placement has no final one either.
        assert results[0].all[0].final is None
        starts = json.loads((out / "flow.json").read_text())["starts"]
        assert starts[0] == {
            "status": "solver_failure",
            "phi": None,
            "iterations": 0,
            "counters": {
                "evaluations": 0,
                "backtracks": 0,
                "memory_resets": 0,
                "swallowed_errors": 0,
                "last_swallowed_error": None,
                "modal_fallbacks": 0,
                "last_modal_fallback": None,
            },
            "error": flow.NO_PLACEMENT,
        }
        assert all(s["status"] == "converged" and "error" not in s for s in starts[1:])

    def test_all_starts_failed_exit_4(self, tmp_path, capsys):
        # A = I has the double eigenvalue 1, which no rank-one b stabilizes:
        # every start fails, and the message says why the first one did.
        payload = {"A": [[1.0, 0.0], [0.0, 1.0]], "epsilon": 1.0, "delta": 1.0, "n_starts": 2}
        problem = write_problem(tmp_path, "unstab.json", payload)
        assert main(["flow", "--problem", problem, "--out", str(tmp_path / "o")]) == 4
        assert flow.NO_PLACEMENT in capsys.readouterr().err


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


    def test_repeated_eigenvalues_below_the_zero_mode(self, tmp_path):
        # The unit 4-ring: eigenvalues 0, -2, -2, -4.
        edges = [[i, (i + 1) % 4, 1.0] for i in range(4)]
        payload = {
            "A": {"generator": "laplacian", "n": 4, "edges": edges},
            "epsilon": 0.5,
            "delta": 0.5,
        }
        problem = write_problem(tmp_path, "ring4.json", payload)
        out = tmp_path / "out"
        assert main(["equilibria", "--problem", problem, "--out", str(out)]) == 0
        report = json.loads((out / "equilibria.json").read_text())
        assert report["regime"] == "negative_semidefinite_v1_only"
        assert report["stable_indices"] == [0]

    def test_positive_top_eigenvalue_exits_3_without_report(self, tmp_path, capsys):
        payload = {
            "A": {"generator": "diag", "eigenvalues": [0.5, -1.0, -2.0]},
            "epsilon": 1.0,
            "delta": 1.0,
        }
        problem = write_problem(tmp_path, "unstable.json", payload)
        out = tmp_path / "out"
        assert main(["equilibria", "--problem", problem, "--out", str(out)]) == 3
        assert "lambda_1 = 0.5 must be <= 0" in capsys.readouterr().err
        assert not (out / "equilibria.json").exists()

    def test_zero_mode_at_zero_gain_exits_3(self, tmp_path):
        payload = {
            "A": {"generator": "laplacian", "n": 2, "edges": [[0, 1, 1.0]]},
            "epsilon": 0.0,
            "delta": 0.0,
        }
        problem = write_problem(tmp_path, "zero_mode.json", payload)
        assert main(["equilibria", "--problem", problem, "--out", str(tmp_path / "o")]) == 3

    def test_repeated_zero_mode_exits_3_without_report(self, tmp_path, capsys):
        # Two disjoint unit edges: no single actuator stabilizes both zero
        # modes, so the closed-form minimum does not exist.
        payload = {
            "A": {"generator": "laplacian", "n": 4, "edges": [[0, 1, 1.0], [2, 3, 1.0]]},
            "epsilon": 0.5,
            "delta": 0.5,
        }
        problem = write_problem(tmp_path, "two_edges.json", payload)
        out = tmp_path / "out"
        assert main(["equilibria", "--problem", problem, "--out", str(out)]) == 3
        assert "repeats the zero eigenvalue" in capsys.readouterr().err
        assert not (out / "equilibria.json").exists()

    @pytest.mark.parametrize(
        "A",
        [
            {"generator": "diag", "eigenvalues": [-1.0, -2.0, -3.0]},
            {"generator": "laplacian", "n": 3, "edges": [[0, 1, 1.0], [1, 2, 0.5]]},
        ],
    )
    def test_one_eigendecomposition_per_run(self, tmp_path, monkeypatch, A):
        calls = []
        eigh = np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        problem = write_problem(tmp_path, "sym.json", {"A": A, "epsilon": 0.1, "delta": 0.1})
        assert main(["equilibria", "--problem", problem, "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1


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

    def test_zero_paths_usage_error(self, tmp_path, capsys):
        # n_paths is a value of the file, so too few paths is a problem error
        # (exit 2), not a usage error: exit 1 is for the command line.
        payload = dict(SCALAR)
        payload["sim"] = {"dt": 0.01, "horizon_T": 10.0, "n_paths": 0, "burn_in": 1.0}
        problem = write_problem(tmp_path, "zero.json", payload)
        assert main(["simulate", "--problem", problem, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "problem error: invalid sim config: n_paths must be at least 1\n"
        )

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

    def test_paths_over_the_divergence_budget_exit_6(self, tmp_path, monkeypatch, capsys):
        values = np.ones(32)
        values[:4] = np.nan
        monkeypatch.setattr(simulate, "_run_paths", lambda *args: values.copy())
        payload = {**SCALAR, "sim": {**SCALAR["sim"], "n_paths": 32}}
        problem = write_problem(tmp_path, "scalar.json", payload)
        assert main(["simulate", "--problem", problem, "--out", str(tmp_path / "o")]) == 6
        assert "4 of 32 paths diverged" in capsys.readouterr().err


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

    def test_a_run_that_measured_nothing_does_not_pass(self, tmp_path, capsys):
        # The eigenvalue 0.5 has two independent eigenvectors, so no single b
        # stabilizes A: every sampled check is skipped, and A is not symmetric.
        payload = {
            "A": [[0.5, 0.0, 1.0], [0.0, 0.5, 0.0], [0.0, 0.0, -1.0]],
            "epsilon": 0.1,
            "delta": 0.1,
        }
        problem = write_problem(tmp_path, "unstabilizable.json", payload)
        out = tmp_path / "out"
        assert main(["verify", "--problem", problem, "--out", str(out)]) == 3
        report = json.loads((out / "verify.json").read_text())
        assert not report["all_passed"]
        assert all("skipped" in check for check in report["checks"])
        printed = capsys.readouterr().out
        for check in report["checks"]:
            assert f"[SKIP] {check['name']}" in printed


class TestSummaryLines:
    """Each command prints "wrote <path>" and then its summary, filled from
    the report it wrote; verify prints one line per check."""

    PAYLOAD = {
        "A": {"generator": "diag", "eigenvalues": [-1.0, -2.0]},
        "epsilon": 0.0,
        "delta": 0.0,
        "placement": {"b": [1.0, 1.0], "c": [1.0, 0.5]},
        "sim": {"dt": 0.5, "horizon_T": 50.0, "n_paths": 2, "burn_in": 0.0},
    }
    EXPECTED = {
        "solve": lambda r: f"phi = {r['phi']!r}, phi_bar = {r['phi_bar']!r}",
        "flow": lambda r: (
            f"best phi = {r['best']['phi']!r} ({r['best']['status']}, "
            f"{r['best']['iterations']} iterations)"
        ),
        "equilibria": lambda r: f"{r['n_candidates']} candidates, stable: {r['stable_indices']}",
        "simulate": lambda r: (
            f"eta_hat = {r['eta_hat']!r} +/- {r['stderr']!r} (phi = {r['phi_reference']!r})"
        ),
        "verify": lambda r: "\n".join(
            f"[{'SKIP' if 'skipped' in c else 'PASS' if c['passed'] else 'FAIL'}] {c['name']}"
            for c in r["checks"]
        ),
    }

    @pytest.mark.parametrize("command", sorted(EXPECTED))
    def test_the_summary_is_the_reports(self, tmp_path, capsys, command):
        problem = write_problem(tmp_path, "diag2.json", self.PAYLOAD)
        code = main([command, "--problem", problem, "--out", str(tmp_path / "out")])
        path = tmp_path / "out" / f"{command}.json"
        report = json.loads(path.read_text())
        assert code == (0 if report.get("all_passed", True) else 3)
        line = self.EXPECTED[command](report)
        assert capsys.readouterr().out == f"wrote {path}\n{line}\n"


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

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        problem = write_problem(tmp_path, "scalar.json", SCALAR)
        args = ["solve", "--problem", problem, "--out", str(tmp_path / "o"), "--seed", "-1"]
        assert main(args) == 1
        assert "--seed must be nonnegative" in capsys.readouterr().err

    def test_seed_override_reseeds_the_simulation(self, tmp_path):
        problem = write_problem(tmp_path, "nonsym3.json", NONSYM3)
        reports = []
        for seed in ("9", "10", "9"):
            out = tmp_path / f"seed{len(reports)}"
            args = ["simulate", "--problem", problem, "--out", str(out), "--seed", seed]
            assert main(args) == 0
            reports.append((out / "simulate.json").read_bytes())
        assert reports[0] != reports[1] and reports[0] == reports[2]

    def test_thread_env_does_not_change_results(self, tmp_path, monkeypatch):
        problem = write_problem(tmp_path, "diag3.json", DIAG3)
        out_seq, out_par = tmp_path / "seq", tmp_path / "par"
        monkeypatch.setenv("CODESIGN_THREADS", "0")
        main(["flow", "--problem", problem, "--out", str(out_seq)])
        monkeypatch.setenv("CODESIGN_THREADS", "3")
        main(["flow", "--problem", problem, "--out", str(out_par)])
        assert (out_seq / "flow.json").read_bytes() == (out_par / "flow.json").read_bytes()
        assert (out_seq / "flow_trace.csv").read_bytes() == (out_par / "flow_trace.csv").read_bytes()
