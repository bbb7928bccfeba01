import json
import math
import warnings

import numpy as np
import pytest

from nlosc import oracle, radial
from nlosc.cli import run, serialize
from nlosc.errors import NonFiniteValue
from polynomial_references import ho_exact, norm_const_mpmath, state_exact, state_mpmath, state_sign_log


@pytest.fixture
def capture(capsys):
    def invoke(argv):
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


REPRESENTATIVE = [
    ["spectrum", "--lambda", "-1", "--L", "0", "--n-max", "3"],
    ["states", "--lambda", "-1", "--L", "0", "--n", "1", "--grid", "0.1:0.9:8"],
    ["gram", "--lambda", "0.1", "--L", "0", "--n-max", "10", "--format", "json"],
    ["veff", "--lambda", "0.5", "--L", "1", "--grid", "0.5:2:5"],
    ["classical", "--mode", "planar", "--lambda", "1", "--t-end", "2", "--samples", "5"],
]


class TestSpectrumCommand:
    def test_csv_values(self, capture):
        code, out, _ = capture(["spectrum", "--lambda", "-1", "--L", "0", "--n-max", "3"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,L,Lambda,e,admissible"
        assert len(lines) == 5
        energies = [float(line.split(",")[3]) for line in lines[1:]]
        assert energies == [1.5, 7.5, 17.5, 31.5]
        assert all(line.endswith("true") for line in lines[1:])

    def test_no_bound_states_exit_1(self, capture):
        code, out, err = capture(["spectrum", "--lambda", "1", "--L", "0", "--n-max", "3"])
        assert code == 1
        assert out == ""
        assert "no bound states" in err
        assert err.count("\n") == 1  # one-line diagnostic

    def test_admissible_flag_column(self, capture):
        code, out, _ = capture(["spectrum", "--lambda", "0.1", "--L", "0", "--n-max", "6"])
        assert code == 0
        flags = [line.split(",")[4] for line in out.strip().split("\n")[1:]]
        assert flags == ["true"] * 5 + ["false"] * 2


class TestStatesCommand:
    def test_schema_and_endpoint(self, capture):
        # the grid stops short of the finite endpoint, where the weight is singular
        code, out, _ = capture(
            ["states", "--lambda", "-1", "--L", "0", "--n", "0", "--grid", "0.5:0.99:3"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "y,R,weight"
        assert len(lines) == 4

    def test_ho_branch_for_tiny_lambda(self, capture):
        code, out, _ = capture(
            ["states", "--lambda", "0", "--L", "0", "--n", "0", "--grid", "0.5:1.0:3"]
        )
        assert code == 0
        assert out.startswith("y,R,weight")


    @pytest.mark.parametrize("lam", ["0", "-0.5"])
    def test_grid_outside_the_domain_exit_1(self, capture, lam):
        # the harmonic branch (|lam| <= 1e-8) keeps the same domain y > 0 as the closed form
        code, out, err = capture(["states", "--lambda", lam, "--n", "1", "--grid=-1:1:3"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: OutsideDomain: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("lam", ["-0.5", "0"])
    def test_grid_from_y_0(self, capture, lam):
        # the weight is 0 at y = 0, where R is defined; the command once refused the grid there
        code, out, err = capture(["states", f"--lambda={lam}", "--L", "3", "--n", "7", "--grid", "0:1.4:8"])
        assert (code, err) == (0, "")
        ys, rs, ws = np.array([list(map(float, line.split(","))) for line in out.strip().split("\n")[1:]]).T
        assert (ys[0], rs[0], ws[0]) == (0.0, 0.0, 0.0)
        assert ws[1:].tobytes() == radial.weight(ys[1:], float(lam)).tobytes()

    @pytest.mark.parametrize("lam", ["-1e-9", "1e-9", "0"])
    def test_ho_branch_default_grid_is_the_half_line_grid(self, capture, lam):
        # the half-line grid, not the lam < 0 ball's: at lam = -1e-9 that one runs to y = 31,623,
        # and R underflows to 0 on every row past the first
        code, out, _ = capture(["states", f"--lambda={lam}", "--n", "0"])
        assert code == 0
        ys, rs, _ = np.array([list(map(float, line.split(","))) for line in out.strip().split("\n")[1:]]).T
        assert ys.tolist() == np.linspace(0.01, 10.0, 200).tolist()
        assert np.all(rs > 0.0)  # the ground state has no node; R(10) is 2.9e-22

    def test_ho_branch_weight_is_y_squared(self, capture):
        code, out, _ = capture(["states", "--lambda", "1e-9", "--L", "1", "--n", "2", "--grid", "0.1:4:7"])
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            y, _, weight = map(float, line.split(","))
            assert weight == y * y

    @pytest.mark.parametrize("lam,n,grid", [("-0.1", 30, "0.5:3:6"), ("0", 40, "0.5:6:6")])
    def test_high_degree_matches_exact_evaluation(self, capture, lam, n, grid):
        # the polynomial piece evaluated exactly; Horner on monomial coefficients
        # printed R(3) = 51.3 and R(6) = -2.137 here, where the values are O(0.1)
        code, out, _ = capture(["states", "--lambda", lam, "--L", "0", "--n", str(n), "--grid", grid])
        assert code == 0
        ys, rs, _ = np.array([list(map(float, line.split(","))) for line in out.strip().split("\n")[1:]]).T
        if float(lam) == 0.0:
            exact = ho_exact(n, 0, ys)[0] / math.sqrt(oracle.ho_norm_sq(n, 0))
        else:
            exact = state_exact(radial.normalize(radial.build_state(n, 0, float(lam))), ys)
        assert np.max(np.abs(rs - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_far_tail_of_a_high_state(self, capture):
        # P_77 overflows a float from y = 858 on while the prefactor underflows;
        # R is finite there and the command once failed on it with NonFiniteValue
        code, out, err = capture(["states", "--lambda", "0.005", "--L", "0", "--n", "77", "--grid", "1:3000:4"])
        assert (code, err) == (0, "")
        ys, rs, _ = np.array([list(map(float, line.split(","))) for line in out.strip().split("\n")[1:]]).T
        state = radial.normalize(radial.build_state(77, 0, 0.005))
        for r, (sign, log_R) in zip(rs, state_sign_log(state, ys)):
            assert r == pytest.approx(sign * float(log_R.exp()), rel=1e-12, abs=0)

    def test_default_grid_where_the_prefactor_is_subnormal(self, capture):
        # exp(log_a) is subnormal at y = 27.81 while R is a normal float: the row
        # printed 7.4378367352738975e-301, 3.9% above the true R
        code, out, err = capture(["states", "--lambda=-0.001", "--L", "0", "--n", "10"])
        assert (code, err) == (0, "")
        rows = {float(line.split(",")[0]): float(line.split(",")[1]) for line in out.strip().split("\n")[1:]}
        y = 27.810180427737002
        state = radial.normalize(radial.build_state(10, 0, -0.001))
        ((sign, log_R),) = state_sign_log(state, [y])
        assert rows[y] == pytest.approx(sign * float(log_R.exp()), rel=1e-12, abs=0)
        pytest.importorskip("mpmath")
        assert rows[y] == pytest.approx(state_mpmath(state, [y])[0], rel=1e-12, abs=0)

    def test_a_recurrence_step_past_the_float_range(self, capture):
        # one step of P_40 from below 2**960 overflowed at y = 5e99 and 1e100 (exit 1 with
        # NonFiniteValue); it is rescaled before the step, and the true R underflows there
        code, out, err = capture(["states", "--lambda", "0.005", "--L", "0", "--n", "40", "--grid", "1:1e100:3"])
        assert (code, err) == (0, "")
        rs = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
        assert len(rs) == 3 and rs[0] != 0.0 and rs[1:] == [0.0, 0.0]

    def test_harmonic_far_tail(self, capture):
        # L_300 passes 2**960 from y = 39.22 on while exp(-y**2/2) underflows: the
        # command once failed there with NonFiniteValue
        mp = pytest.importorskip("mpmath")
        code, out, err = capture(["states", "--lambda", "0", "--L", "0", "--n", "300", "--grid", "1:60:4"])
        assert (code, err) == (0, "")
        ys, rs, _ = np.array([list(map(float, line.split(","))) for line in out.strip().split("\n")[1:]]).T
        with mp.workdps(50):
            c = 1 / mp.sqrt(mp.gamma(mp.mpf(603) / 2) / (2 * mp.factorial(300)))
            exact = [float(c * mp.exp(-mp.mpf(y) ** 2 / 2) * mp.laguerre(300, mp.mpf(1) / 2, mp.mpf(y) ** 2)) for y in ys]
        assert np.all(np.isfinite(rs)) and rs[2] != 0.0 and rs[3] == exact[3] == 0.0
        assert rs.tolist() == pytest.approx(exact, rel=1e-12, abs=0)

    def test_squared_norm_past_the_float_range(self, capture):
        # the squared norm is e**714.7; its closed-form log gives the constant
        # 6.32e-156 (exit 1 while the squared norm was rounded to a float first)
        pytest.importorskip("mpmath")
        code, out, err = capture(["states", "--lambda", "-0.001", "--L", "170", "--n", "5", "--grid", "1:30:4"])
        assert (code, err) == (0, "")
        ys, rs, _ = np.array([list(map(float, line.split(","))) for line in out.strip().split("\n")[1:]]).T
        state = radial.normalize(radial.build_state(5, 170, -0.001))
        assert state.norm_const == pytest.approx(norm_const_mpmath(5, 170, -0.001), rel=1e-12)
        assert np.all(np.isfinite(rs)) and rs[1] == pytest.approx(0.0565, rel=1e-3)
        assert rs.tolist() == radial.eval_state(state, ys).tolist()


class TestGramCommand:
    def test_truncation_and_json_shape(self, capture):
        code, out, _ = capture(["gram", "--lambda", "0.1", "--L", "0", "--n-max", "10", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "gram"
        assert doc["params"]["size"] == 5
        assert len(doc["data"]) == 25
        for cell in doc["data"]:
            target = 1.0 if cell["i"] == cell["j"] else 0.0
            assert abs(cell["value"] - target) < 1e-8


class TestNegativeNMax:
    @pytest.mark.parametrize("command", ["spectrum", "gram"])
    def test_exit_1_with_value_error(self, capture, command):
        code, out, err = capture([command, "--lambda", "-1", "--L", "0", "--n-max", "-1"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ValueError: ")
        assert "must be >= 0" in err
        assert err.count("\n") == 1


class TestOtherCommands:
    def test_shoot(self, capture):
        code, out, _ = capture(["shoot", "--lambda", "-0.5", "--L", "0", "--n", "0"])
        assert code == 0
        header, row = out.strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        assert abs(float(fields["abs_diff"])) < 1e-6

    def test_limit(self, capture):
        code, out, _ = capture(["limit", "--lambda", "0.001", "--L", "0", "--n", "0"])
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[3]) < 5e-3

    def test_classical_1d(self, capture):
        code, out, _ = capture(
            ["classical", "--mode", "1d", "--lambda", "1", "--x0", "0.5", "--t-end", "1", "--samples", "4"]
        )
        assert code == 0
        assert out.startswith("t,x,v,H")

    def test_classical_error_exit_1(self, capture):
        code, _, err = capture(
            [
                "classical", "--mode", "1d", "--lambda", "-1", "--x0", "0.999",
                "--v0", "2", "--t-end", "10", "--tol", "1e-3",
            ]
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv,what",
        [
            (
                "--mode planar --lambda 1.8046215720767231 --m 1.4191300134710474 --alpha 1.294253674081475 "
                "--r0 0.8547700787995584 --rdot0 0.03355196777177338 --C 1.4971775453408056 --t-end 190.2499042189749",
                "planar integration",
            ),
            ("--mode 1d --lambda 2 --m 1 --alpha 0.5 --x0 0.5 --v0 1 --t-end 250", "1D integration"),
        ],
        ids=["planar", "1d"],
    )
    def test_classical_escape_exit_1(self, capture, argv, what):
        # H above the lam > 0 plateau m*alpha**2/(2*lam): these said RadialCollapse and DomainExit
        code, out, err = capture(["classical", *argv.split()])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: UnboundedOrbit: {what} ran off to infinity: the energy H = ")
        assert err.endswith("; lower the energy or shorten t_end\n") and err.count("\n") == 1

    def test_veff(self, capture):
        code, out, _ = capture(["veff", "--lambda", "1", "--L", "1", "--grid", "1:2:2"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "r,V_eff"
        assert float(lines[1].split(",")[1]) == pytest.approx(2.25, rel=1e-14)


class TestClassicalArguments:
    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--samples", "0", "n_samples must be >= 2"),
            ("--samples", "1", "n_samples must be >= 2"),
            ("--tol", "0", "tol must be finite and positive, got 0.0"),
            ("--tol", "-1", "tol must be finite and positive, got -1.0"),
            ("--tol", "nan", "tol must be finite and positive, got nan"),
            ("--t-end", "inf", "t_end must be finite and positive, got inf"),
            ("--t-end", "nan", "t_end must be finite and positive, got nan"),
        ],
    )
    @pytest.mark.parametrize("mode", ["1d", "planar"])
    def test_exit_1_with_value_error(self, capture, mode, flag, value, message):
        argv = ["classical", "--mode", mode, "--lambda", "-0.5", "--x0", "0.5", "--r0", "0.5", flag, value]
        code, out, err = capture(argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: ValueError: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "mode,flag,value",
        [("1d", "--x0", "nan"), ("1d", "--v0", "inf"), ("planar", "--C", "nan"), ("planar", "--r0", "nan"),
         ("planar", "--rdot0", "nan"), ("planar", "--r0", "-inf")],
    )
    def test_non_finite_initial_value_exit_1(self, capture, mode, flag, value):
        # these reported DomainExit or RadialCollapse after a first step
        code, out, err = capture(["classical", "--mode", mode, "--lambda", "1", flag, value])
        assert (code, out) == (1, "")
        assert err == f"error: ValueError: {flag[2:]} must be finite, got {float(value)}\n"

    def test_shoot_tol_exit_1(self, capture):
        code, out, err = capture(["shoot", "--lambda", "-0.5", "--n", "1", "--tol", "0"])
        assert code == 1
        assert err == "error: ValueError: rtol must be finite and positive, got 0.0\n"

    def test_shoot_small_lambda_exit_1(self, capture):
        # this printed a level 3e-5 off the closed form with exit 0
        code, out, err = capture(["shoot", "--lambda=1e-12", "--n", "0"])
        assert (code, out) == (1, "")
        assert err == "error: LambdaTooSmall: |Lambda| = 1e-12 <= 1e-08; use the harmonic-oscillator branch\n"


class TestNegativeExponentValues:
    # argparse reads "-1e-3" after a space as an option unless the CLI joins it
    # to the option before it; the "=" form must give the same bytes
    @pytest.mark.parametrize(
        "spaced,joined",
        [
            ("limit --lambda -1e-3 --n 0", "limit --lambda=-1e-3 --n 0"),
            ("states --lambda -1e-3 --L 1 --n 1 --grid 0.5:1:3", "states --lambda=-1e-3 --L 1 --n 1 --grid 0.5:1:3"),
            ("shoot --lambda -5e-1 --n 1 --tol 1e-8", "shoot --lambda=-5e-1 --n 1 --tol 1e-8"),
            (
                "classical --lambda -1e-1 --x0 -5e-1 --t-end 1 --samples 3",
                "classical --lambda=-1e-1 --x0=-5e-1 --t-end 1 --samples 3",
            ),
        ],
        ids=["limit", "states", "shoot", "classical"],
    )
    def test_space_form_matches_equals_form(self, capture, spaced, joined):
        code, out, err = capture(spaced.split())
        assert code == 0, err
        assert capture(joined.split()) == (0, out, "")

    def test_shoot_negative_tol_reaches_the_check(self, capture):
        code, out, err = capture(["shoot", "--lambda", "-0.5", "--n", "1", "--tol", "-1e-10"])
        assert code == 1
        assert out == ""
        assert err == "error: ValueError: rtol must be finite and positive, got -1e-10\n"

    def test_value_that_is_not_a_number_stays_an_option(self):
        with pytest.raises(SystemExit) as exc:
            run(["limit", "--lambda", "--n", "0"])
        assert exc.value.code == 2


class TestShootHelp:
    def test_help_names_the_eigen_solve_not_an_integrator(self, capsys):
        for argv in (["--help"], ["shoot", "--help"]):
            with pytest.raises(SystemExit):
                run(argv)
            text = capsys.readouterr().out.lower()
            assert "shoot" in text
            assert "integrator" not in text and "shooting" not in text


class TestVeffDefaultGrid:
    # the default grid is in r, so it must end just inside r = 1/sqrt(|lam|)
    # whatever m, alpha and hbar are
    @pytest.mark.parametrize("lam", ["-1", "-0.3"])
    @pytest.mark.parametrize("m", ["2", "0.5"])
    def test_ends_at_the_edge_of_the_ball(self, capture, lam, m):
        code, out, err = capture(["veff", "--lambda", lam, "--L", "1", "--m", m])
        assert code == 0, err
        last_r = float(out.strip().split("\n")[-1].split(",")[0])
        assert 0 < 1.0 / math.sqrt(-float(lam)) - last_r < 1e-8


class TestShootQuantumNumbers:
    @pytest.mark.parametrize("flag", ["--n", "--L"])
    def test_negative_exit_1_with_value_error(self, capture, flag):
        argv = ["shoot", "--lambda", "-0.5", "--L", "0", "--n", "0"]
        argv[argv.index(flag) + 1] = "-1"
        code, out, err = capture(argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ValueError: quantum numbers must be nonnegative")
        assert err.count("\n") == 1


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            run(["spectrum", "--L", "0", "--n-max", "3"])
        assert exc.value.code == 2

    def test_bad_grid(self):
        with pytest.raises(SystemExit) as exc:
            run(["states", "--lambda", "-1", "--n", "0", "--grid", "1:2"])
        assert exc.value.code == 2


class TestDeterminismAndOutput:
    @pytest.mark.parametrize("argv", REPRESENTATIVE, ids=[a[0] for a in REPRESENTATIVE])
    def test_byte_identical_runs(self, capture, argv):
        code1, out1, _ = capture(argv)
        code2, out2, _ = capture(argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1) > 0

    def test_out_file(self, capture, tmp_path):
        target = tmp_path / "spec.csv"
        code, out, _ = capture(
            ["spectrum", "--lambda", "-1", "--L", "0", "--n-max", "1", "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n,L,Lambda,e,admissible")


# one command per subcommand, each cheap
EVERY_SUBCOMMAND = [
    ["spectrum", "--lambda", "0.1", "--L", "1", "--n-max", "5"],
    ["states", "--lambda", "-0.5", "--L", "1", "--n", "2", "--grid", "0.1:1.4:6"],
    ["gram", "--lambda", "-1", "--L", "0", "--n-max", "2"],
    ["shoot", "--lambda", "-0.5", "--L", "1", "--n", "1"],
    ["limit", "--lambda", "-1e-3", "--L", "1", "--n", "2"],
    ["classical", "--mode", "planar", "--lambda", "0.5", "--t-end", "1", "--samples", "4"],
    ["veff", "--lambda", "0.5", "--L", "2", "--grid", "0.5:2:4"],
]


class TestSerializer:
    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=[a[0] for a in EVERY_SUBCOMMAND])
    def test_json_data_carries_the_csv_table(self, capture, argv):
        code, text, _ = capture(argv)
        code_json, doc, _ = capture(argv + ["--format", "json"])
        assert code == code_json == 0
        data = json.loads(doc)["data"]
        header, *lines = text.splitlines()
        assert len(data) == len(lines) > 0
        for row, line in zip(data, lines):
            assert list(row) == header.split(",")
            # 17 significant digits read back to the same float
            assert [json.loads(cell) for cell in line.split(",")] == list(row.values())

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=[a[0] for a in EVERY_SUBCOMMAND])
    def test_out_writes_the_stdout_bytes(self, capture, tmp_path, argv, fmt):
        code, text, _ = capture(argv + ["--format", fmt])
        assert code == 0
        target = tmp_path / "table.txt"
        assert capture(argv + ["--format", fmt, "--out", str(target)]) == (0, "", "")
        assert target.read_bytes() == text.encode()

    @pytest.mark.parametrize(
        "argv",
        [
            # the centrifugal term overflows for every point
            ["veff", "--lambda", "1e300", "--m", "1e-10", "--L", "3", "--grid", "1:2:3"],
            ["veff", "--lambda", "1e300", "--m", "1e-10", "--L", "3", "--grid", "1:2:3", "--format", "json"],
        ],
    )
    def test_non_finite_value_is_one_line_naming_the_column(self, capture, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
            code, out, err = capture(argv)
        assert code == 1
        assert out == ""
        assert err == "error: NonFiniteValue: non-finite value in column 'V_eff'\n"

    def test_first_non_finite_cell_in_row_order_names_the_column(self):
        columns = {"a": [1, 2], "b": [1.0, math.inf], "c": [math.nan, 0.5]}
        with pytest.raises(NonFiniteValue, match="^non-finite value in column 'c'$"):
            serialize("x", {}, columns, "csv")

    def test_cells_by_column_type(self):
        columns = {"n": [0, 12], "x": [0.1, -0.0], "ok": [True, False]}
        assert serialize("x", {}, columns, "csv") == "n,x,ok\n0,0.10000000000000001,true\n12,-0,false\n"


class TestOneLineErrors:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=[a[0] for a in EVERY_SUBCOMMAND])
    def test_non_finite_lambda(self, capture, argv, value):
        argv = list(argv)
        argv[argv.index("--lambda") + 1] = value
        assert capture(argv) == (1, "", f"error: ValueError: Lambda must be finite, got {value}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--lambda", "1", "--L", "-1", "--n-max", "3"],
            ["spectrum", "--lambda", "-1", "--L", "-1", "--n-max", "3"],
            ["veff", "--lambda", "1", "--L", "-2", "--grid", "1:2:3"],
            ["states", "--lambda", "1e-9", "--L", "-1", "--n", "0", "--grid", "0.5:1:3"],
            ["states", "--lambda", "-0.5", "--L", "-1", "--n", "0", "--grid", "0.5:1:3"],
        ],
        ids=["spectrum+", "spectrum-", "veff", "states-harmonic", "states"],
    )
    def test_negative_L(self, capture, argv):
        code, out, err = capture(argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ValueError: quantum numbers must be nonnegative")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("L", ["0", "1"])
    def test_r_squared_underflow(self, capture, L):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = capture(["veff", "--lambda", "1", "--L", L, "--grid", "1e-200:1:3"])
        assert (code, out) == (1, "")
        assert err == "error: OutsideDomain: effective potential needs r*r > 0, got r = 1e-200\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["veff", "--lambda", "1", "--m", "nan", "--grid", "1:2:3"], "mass parameter must be positive, got nan"),
            (["classical", "--lambda", "1", "--alpha", "nan"], "alpha must be positive, got nan"),
        ],
        ids=["veff-m", "classical-alpha"],
    )
    def test_nan_physical_constant(self, capture, argv, message):
        assert capture(argv) == (1, "", f"error: NonPositiveParameter: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["gram", "--lambda", "-0.001", "--L", "400", "--n-max", "2"],
            ["limit", "--lambda", "0.001", "--L", "300", "--n", "0"],
            ["states", "--lambda", "0", "--L", "300", "--n", "0", "--grid", "1:30:4"],
        ],
        ids=["gram-overflow", "limit-overflow", "states-harmonic-overflow"],
    )
    def test_non_finite_norm(self, capture, argv):
        # a squared norm that rounds to inf would give R = 0 at every point
        code, out, err = capture(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: QuadratureFailure: non-finite norm")
        assert err.count("\n") == 1

    def test_integer_too_large_for_a_float(self, capture):
        argv = ["spectrum", "--lambda", "-1", "--L", "1" + "0" * 400, "--n-max", "1"]
        assert capture(argv) == (1, "", "error: OverflowError: int too large to convert to float\n")
