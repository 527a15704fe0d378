import hashlib
import shlex
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
import sympy as sp

from fibvar import analysis, cli
from fibvar.closed_form import closed_form_v
from fibvar.moments import LemmaRow


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_r_subcommand(capsys):
    code, out, _ = run_cli(capsys, "r", "--n", "168")
    assert code == 0
    assert out.strip() == "13"


def test_r_negative_argument(capsys):
    code, out, _ = run_cli(capsys, "r", "--n", "-5")
    assert code == 0
    assert out.strip() == "0"


def test_zeckendorf_subcommand(capsys):
    code, out, _ = run_cli(capsys, "zeckendorf", "--n", "100")
    assert code == 0
    assert out.strip() == "100 = F_11 + F_6 + F_4 = 89 + 8 + 3"


def test_zeckendorf_rejects_zero(capsys):
    code, _, err = run_cli(capsys, "zeckendorf", "--n", "0")
    assert code == 1
    assert "error" in err


def test_table_subcommand(capsys):
    code, out, _ = run_cli(capsys, "table", "--h-max", "3")
    assert code == 0
    assert out.splitlines() == ["n,R", "0,1", "1,1", "2,1", "3,2"]


def test_moments_subcommand(capsys):
    code, out, _ = run_cli(capsys, "moments", "--h-max", "3")
    assert code == 0
    assert out.splitlines() == ["n,R,A,V", "0,1,1,1", "1,1,2,2", "2,1,3,3", "3,2,5,7"]


# digests of the CSVs as the per-row print loops wrote them
CSV_SHA256 = {
    ("table", 1): "54c12e2db23e9be0b111a61674d8b2d99e8b185cf285cb2965e9afe68ca3f71e",
    ("moments", 1): "3d1e15ee47e6058bb6b773857d8d4d3050935d82dd6b8cadb764c41e7b4b6d58",
    ("figure", 1): "825ba02b82c3fcb39e1a9873c796eb35d9d0ec43f3811baec364a49ba79a9fd2",
    ("table", 40000): "46a4bd1fe45730bb1af8fe45ecbcb48ecdb479ebb32acfcc1fff8583e2f6e80e",
    ("moments", 40000): "43f59ff7bfc2de8c68e705868127a52cef076c52119d7a093c6ac4e2f5bd33be",
    ("figure", 40000): "cf241bec77d9e254e50b2d502f332818244366d73ac6ce27396bd168c1dbc78f",
    ("moments", 150000): "9eaa31475941d5d24ef90b2a528a6454bf6d79bb5efaf26dac55c8b4fa4d78ee",
    ("figure", 150000): "7163dfb96ac25c5d4e8b6ef8c13c347a8b5348f5771dbe01226c39b77bd099b1",
}


@pytest.mark.parametrize("command, h_max", sorted(CSV_SHA256))
def test_csv_output_is_pinned(capsys, command, h_max):
    assert h_max == 1 or h_max > 2 * analysis.CSV_CHUNK_ROWS  # rows span several chunks
    code, out, _ = run_cli(capsys, command, "--h-max", str(h_max))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CSV_SHA256[command, h_max]


def test_verify_lemma_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-lemma", "--from", "7", "--to", "12")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m=7 lhs=53 rhs=53 PASS"
    assert lines[-1] == "verify-lemma: PASS (6/6)"


def test_verify_lemma_rejects_small_from(capsys):
    code, _, err = run_cli(capsys, "verify-lemma", "--from", "6", "--to", "12")
    assert code == 1
    assert "error" in err


def test_verify_lemma_failure_exit_code(capsys, monkeypatch):
    fake = [LemmaRow(7, 53, 52)]
    monkeypatch.setattr(cli.moments, "verify_lemma", lambda *a, **k: fake)
    code, out, _ = run_cli(capsys, "verify-lemma", "--to", "7")
    assert code == 2
    assert out.splitlines() == ["m=7 lhs=53 rhs=52 FAIL", "verify-lemma: FAIL (0/1)"]


@pytest.mark.parametrize("command", ["verify-lemma", "verify-cases", "verify-w"])
@pytest.mark.parametrize("bounds", [("--from", "9", "--to", "8"), ("--from", "6", "--to", "8"), ("--to", "2")])
def test_range_commands_print_usage_on_a_bad_range(capsys, command, bounds):
    code, out, err = run_cli(capsys, command, *bounds)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("usage: fibvar")


def test_verify_w_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify-w", "--from", "7", "--to", "10")
    assert code == 0
    assert "m=9 swept=14 closed=14 PASS" in out.splitlines()


def test_verify_cases_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify-cases", "--from", "7", "--to", "8")
    assert code == 0
    assert out.splitlines()[-1] == "verify-cases: PASS"


def test_solve_subcommand(capsys):
    code, out, _ = run_cli(capsys, "solve", "--precision", "30")
    assert code == 0
    lines = out.splitlines()
    assert "g0 = 8/37" in lines
    assert "g1 = 14/37" in lines
    assert "g2 = -13/74" in lines
    assert "c3 = 5/8" in lines
    assert "c4 = 3/8" in lines
    assert any(line.startswith("c1 ~ 0.0735299") for line in lines)
    assert any(line.startswith("lambda1 = 2.4811943") for line in lines)


def test_solve_prints_each_lambda_to_precision_places(capsys):
    x = sp.symbols("x")
    roots = sp.Poly(x**3 - 2 * x**2 - 2 * x + 2, x).all_roots()
    lam2, lam5, lam1 = sorted(roots, key=lambda r: sp.N(r, 30))
    for p in range(1, 41):
        code, out, _ = run_cli(capsys, "solve", "--precision", str(p))
        assert code == 0
        printed = dict(line.split(" = ") for line in out.splitlines() if line.startswith("lambda"))
        for name, root in (("lambda1", lam1), ("lambda2", lam2), ("lambda5", lam5)):
            value = Decimal(printed[name])
            assert value.as_tuple().exponent == -p, (p, name, value)
            with localcontext() as ctx:
                ctx.prec = p + 20
                assert abs(value - Decimal(str(sp.N(root, p + 10)))) <= Decimal(10) ** -p, (p, name)


def test_solve_prints_lambdas_past_the_int_str_digit_limit(capsys):
    # lambda's digits at precision p are an int of p + 1 digits; str(int) stops at 4300
    code, out, _ = run_cli(capsys, "solve", "--precision", "4300")
    assert code == 0
    lambdas = [line.split(" = ")[1] for line in out.splitlines() if line.startswith("lambda")]
    assert [len(value.split(".")[1]) for value in lambdas] == [4300] * 3


def test_closed_form_subcommand(capsys):
    code, out, _ = run_cli(capsys, "closed-form", "--m", "30")
    assert code == 0
    assert out.strip() == "V(F_30) = 50849571042"


def test_closed_form_prints_more_digits_than_int_str_limit(capsys, solution):
    # V(F_20000) has 7893 digits, past the default cap of 4300 on str(int)
    code, out, _ = run_cli(capsys, "closed-form", "--m", "20000")
    assert code == 0
    label, digits = out.rstrip("\n").split(" = ")
    assert label == "V(F_20000)"
    assert Decimal(digits) == closed_form_v(20000, solution)


def test_exponents_subcommand(capsys):
    code, out, _ = run_cli(capsys, "exponents")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("phi = 1.6180339887")
    assert lines[1].startswith("lambda = 1.4404200904")
    assert lines[2].startswith("exponent_cs = 1.8808401808")
    assert lines[3].startswith("exponent_main = 1.8884407472")


def test_figure_subcommand(capsys):
    code, out, _ = run_cli(capsys, "figure", "--h-max", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "H,V,norm_cs,norm_main"
    assert len(lines) == 4
    assert lines[1].startswith("1,2,")


def test_check_carlitz_subcommand(capsys):
    code, out, _ = run_cli(capsys, "check-carlitz", "--to", "12")
    assert code == 0
    assert out.splitlines()[-1] == "check-carlitz: PASS"


def test_check_sqrt_bound_subcommand(capsys):
    code, out, _ = run_cli(capsys, "check-sqrt-bound", "--h-max", "170")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "equality at: 0 3 8 24 63 168"
    assert lines[1] == "check-sqrt-bound: PASS"


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "usage" in err


def test_budget_exceeded_exit_code(capsys):
    code, _, err = run_cli(capsys, "figure", "--h-max", str(10**9))
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("command", ["verify-cases", "verify-w"])
def test_case_commands_pass_past_the_table(capsys, command):
    code, out, _ = run_cli(capsys, command, "--from", "38", "--to", "40")
    assert code == 0
    assert out.splitlines()[-1] == f"{command}: PASS"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-cases", "--from", "20", "--to", "10001"],
        ["verify-w", "--from", "19", "--to", "10001"],
    ],
)
def test_range_past_enumeration_budget_prints_nothing(capsys, argv):
    # m_hi past the sweep's cap: refused from m_hi alone, before any row
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check-carlitz", "--to", "21000"],
        ["verify-lemma", "--to", "1000000"],
    ],
)
def test_checkpoint_past_table_budget_is_refused_on_m(capsys, argv):
    # F_m here has thousands of digits; the refusal must come before it is formed
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "budget" in err


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "fibvar.cli", "r", "--n", "55"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "5"


@pytest.mark.parametrize(
    "argv",
    [
        ["r"],
        ["table"],
        ["closed-form", "--m", "notanint"],
        ["verify-w", "--to", "5"],
        ["verify-cases", "--from", "9", "--to", "8"],
        ["solve", "--precision", "-1"],
        ["solve", "--precision", "0"],
        ["table", "--h-max", "-1"],
        ["figure", "--h-max", "0"],
        ["check-sqrt-bound", "--h-max", "-1"],
        ["closed-form", "--m", "1"],
        ["check-carlitz", "--to", "1"],
        ["exponents", "--precision", "0"],
        ["zeckendorf", "--n", "0"],
    ],
)
def test_malformed_flags(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: fibvar")


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["table", "--h-max", "-1"], "usage: fibvar table [-h] --h-max H_MAX"),
        (["verify-cases", "--from", "9", "--to", "8"], "usage: fibvar verify-cases [-h]"),
        (["frobnicate"], "usage: fibvar [-h] command ..."),
    ],
)
def test_usage_error_prints_the_usage_of_the_failing_command(capsys, argv, usage):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.splitlines()[0].startswith(usage)


@pytest.mark.parametrize("argv", [("solve", "--precision", "150"), ("exponents", "--precision", "100")])
def test_library_runtime_error_is_an_internal_error(capsys, monkeypatch, argv):
    def broken(precision):
        raise RuntimeError("no sign change")

    monkeypatch.setattr(cli.closed_form, "isolate_real_roots", broken)
    monkeypatch.setattr(cli.analysis, "isolate_real_roots", broken)
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "fibvar: internal error: no sign change\n"


def test_library_value_error_is_an_internal_error(capsys, monkeypatch):
    # every flag floor is checked by the parser, so a ValueError from the library is a bug
    def broken(h_max):
        raise ValueError("bad table")

    monkeypatch.setattr(cli.partitions, "r_table", broken)
    code, out, err = run_cli(capsys, "table", "--h-max", "3")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err.startswith("fibvar: internal error:")


def test_closed_stdout_exits_141_without_a_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "fibvar.cli", "table", "--h-max", "1000000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"n,R\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == cli.EXIT_PIPE == 141
    assert err == b""


def readme_cli_lines():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [line.split("#") for line in block.splitlines() if line.startswith("fibvar ")]
    return [(shlex.split(command)[1:], comment.strip()) for command, comment in lines]


@pytest.mark.parametrize("argv, comment", readme_cli_lines())
def test_readme_cli_examples_run(capsys, argv, comment):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if argv[0] == "r":
        assert comment == "R(168) = 13" and out == "13\n"
    if argv[0] == "zeckendorf":
        assert out.strip() == comment
