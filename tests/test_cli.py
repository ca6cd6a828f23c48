"""End-to-end CLI: exit codes, tables, determinism, file handling."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

import compstruct
from compstruct import tables
from compstruct.cli import main
from compstruct.composition import MAX_ENUM_N, enumerate_compositions
from compstruct.laws import (DecrementMatrixPair, ewens_pair, markov_cpf, two_param_q,
                             two_param_stationary_pair)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_pair(path, pair, N, skip=()):
    """A markov-table file with rows n <= N of (q, q*), leaving out ``skip``."""
    lines = [f"{kind} {n} {r} {tables.format_value(m(n, r))}"
             for n in range(1, N + 1) for r in range(1, n + 1)
             for kind, m in (("q", pair.q), ("q*", pair.qstar))
             if (kind, n, r) not in skip]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_fresh(code):
    """Run code in a fresh interpreter that imports this compstruct."""
    src = os.path.dirname(os.path.dirname(compstruct.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                   stdout=subprocess.DEVNULL)


def run_without(package, code):
    """Run code in a fresh interpreter and check that it loaded no ``package`` module."""
    run_fresh(code + "import sys\n"
              f"assert not any(m.split('.')[0] == {package!r} for m in sys.modules)\n")


def text_rows(out):
    return dict(line.split("\t")[:2] for line in out.splitlines()
                if not line.startswith("#"))


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(1e16)
def test_float_values_round_trip(x):
    # every finite float repr is a decimal, so it reads back as the same float
    back = tables.parse_value(tables.format_value(x))
    assert type(back) is float and back == x and repr(back) == repr(x)


@pytest.mark.parametrize("text, value", [("1", F(1)), ("1/1", F(1)), ("-3/8", F(-3, 8)),
                                         ("0.5", 0.5), ("1e-05", 1e-05)])
def test_one_scalar_rule(text, value):
    assert type(tables.parse_value(text)) is type(value) and tables.parse_value(text) == value


class TestCpfCommand:
    def test_ewens_table(self, capsys):
        code, out, _ = run(capsys, "cpf", "--family", "ewens", "--theta", "1",
                           "--n", "3")
        assert code == 0
        rows = dict(line.split("\t")[:2] for line in out.splitlines()
                    if not line.startswith("#"))
        assert rows == {"100": "1/3", "101": "1/6", "110": "1/3", "111": "1/6"}
        assert "# total\t1/1" in out

    def test_renewal_table(self, capsys):
        code, out, _ = run(capsys, "cpf", "--family", "renewal", "--alpha",
                           "1/2", "--n", "3")
        assert code == 0
        rows = dict(line.split("\t")[:2] for line in out.splitlines()
                    if not line.startswith("#"))
        assert rows == {"100": "3/8", "101": "1/8", "110": "1/4", "111": "1/4"}

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "cpf", "--family", "renewal", "--alpha",
                           "1/2", "--n", "3", "--format", "json")
        assert code == 0
        tree = json.loads(out)
        assert tree["n"] == 3 and tree["total"] == "1/1"
        assert tree["rows"][0] == {"composition": "3", "binary": "100",
                                   "probability": "3/8"}

    def test_two_param_exact(self, capsys):
        code, out, _ = run(capsys, "cpf", "--family", "two-param", "--alpha",
                           "1/2", "--theta", "1", "--n", "2")
        assert code == 0 and "# total\t1/1" in out

    def test_missing_param_exit2(self, capsys):
        code, _, err = run(capsys, "cpf", "--family", "ewens", "--n", "3")
        assert code == 2 and "theta" in err

    def test_bad_scalar_exit2(self, capsys):
        code, _, _ = run(capsys, "cpf", "--family", "ewens", "--theta", "x/y",
                         "--n", "3")
        assert code == 2

    def test_out_of_range_param_exit2(self, capsys):
        code, _, _ = run(capsys, "cpf", "--family", "renewal", "--alpha", "2",
                         "--n", "3")
        assert code == 2

    def test_cap_exceeded_exit3(self, capsys):
        code, _, err = run(capsys, "cpf", "--family", "ewens", "--theta", "1",
                           "--n", "40")
        assert code == 3 and "cap" in err

    def test_output_file_and_outdir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COMPSTRUCT_OUTDIR", str(tmp_path))
        code, out, _ = run(capsys, "cpf", "--family", "ewens", "--theta", "1",
                           "--n", "3", "--output", "table.txt")
        assert code == 0 and out == ""
        assert "1/3" in (tmp_path / "table.txt").read_text()


    def test_renewal_reversed_table(self, capsys):
        # the forward n = 3 table read through reversed compositions
        code, out, _ = run(capsys, "cpf", "--family", "renewal-reversed", "--alpha",
                           "1/2", "--n", "3")
        assert code == 0
        assert text_rows(out) == {"100": "3/8", "101": "1/4", "110": "1/8", "111": "1/4"}
        assert "# total\t1/1" in out

    def test_markov_table_equals_two_param(self, capsys, tmp_path):
        mf = write_pair(tmp_path / "pair.txt", two_param_stationary_pair(F(1, 3), F(2, 3)), 6)
        for fmt in ("text", "json"):
            code, table, _ = run(capsys, "cpf", "--family", "markov-table",
                                 "--matrix-file", mf, "--n", "6", "--format", fmt)
            assert code == 0
            _, want, _ = run(capsys, "cpf", "--family", "two-param", "--alpha", "1/3",
                             "--theta", "2/3", "--n", "6", "--format", fmt)
            assert table.replace(f"table[{mf}]", "stationary[two-param(1/3,2/3)]") == want

    def test_missing_matrix_entry_exit2(self, capsys, tmp_path):
        mf = write_pair(tmp_path / "pair.txt", two_param_stationary_pair(F(1, 2), 1), 4,
                        skip={("q*", 4, 2)})
        code, out, err = run(capsys, "cpf", "--family", "markov-table",
                             "--matrix-file", mf, "--n", "4")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "lacks q*(4:2)" in err

    def test_malformed_matrix_line_exit2(self, capsys, tmp_path):
        mf = tmp_path / "pair.txt"
        mf.write_text("q 1 1 1/1\nz 1 1 1/1\n")
        code, _, err = run(capsys, "cpf", "--family", "markov-table",
                           "--matrix-file", str(mf), "--n", "1")
        assert code == 2 and "bad matrix line" in err

    def test_missing_matrix_file_exit2(self, capsys, tmp_path):
        code, out, err = run(capsys, "cpf", "--family", "markov-table",
                             "--matrix-file", str(tmp_path / "absent.txt"), "--n", "3")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "cannot read matrix file" in err

    def test_float_two_param_loads_no_scipy(self):
        # the closed-form pair needs no Levy exponent, so no scipy.special
        run_without("scipy", "from compstruct.cli import main\n"
                    "assert main(['cpf', '--family', 'two-param', '--alpha', '0.5',\n"
                    "             '--theta', '1.0', '--n', '6']) == 0\n")

    def test_float_levy_path_loads_no_scipy(self):
        # the Levy exponent, the potential and the Beta density use lgamma
        run_without("scipy", "from compstruct.laws import (beta_meander, levy_exponent,\n"
                    "                             potential_from_levy, two_param_levy)\n"
                    "spec = two_param_levy(0.5, 1.0)\n"
                    "assert levy_exponent(spec, 3) > 0\n"
                    "assert potential_from_levy(spec, 4) > 0\n"
                    "assert beta_meander(0.5, 1.0).density(0.3) > 0\n")

    @pytest.mark.parametrize("fmt, unused", [("text", "cpf_table_tree"),
                                             ("json", "cpf_table_lines")])
    def test_builds_only_the_requested_format(self, capsys, monkeypatch, fmt, unused):
        def refuse(*args):
            raise AssertionError(f"{unused} built for --format {fmt}")

        monkeypatch.setattr(tables, unused, refuse)
        code, out, _ = run(capsys, "cpf", "--family", "ewens", "--theta", "1",
                           "--n", "3", "--format", fmt)
        assert code == 0 and out


class TestSampleCommand:
    def test_counts_and_determinism(self, capsys):
        argv = ("sample", "--family", "ewens", "--theta", "1", "--n", "4",
                "--seed", "5", "--draws", "500")
        code, out1, _ = run(capsys, *argv)
        assert code == 0
        total = sum(int(line.split("\t")[1]) for line in out1.splitlines()
                    if not line.startswith("#"))
        assert total == 500
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_streams_differ(self, capsys):
        base = ("sample", "--family", "renewal", "--alpha", "1/2", "--n", "4",
                "--seed", "5", "--draws", "200")
        _, out0, _ = run(capsys, *base, "--stream", "0")
        _, out1, _ = run(capsys, *base, "--stream", "1")
        assert out0 != out1

    def test_set_methods(self, capsys):
        for method in ("uniform-set", "poisson-set"):
            code, out, _ = run(capsys, "sample", "--family", "ewens", "--theta",
                               "1", "--n", "3", "--seed", "9", "--draws", "200",
                               "--method", method)
            assert code == 0
            assert sum(int(line.split("\t")[1]) for line in out.splitlines()
                       if not line.startswith("#")) == 200

    @pytest.mark.parametrize("params", [("--family", "ewens", "--theta", "-1"),
                                        ("--family", "renewal", "--alpha", "3/2"),
                                        # the growth sampler refuses a law that is
                                        # not right-consistent
                                        ("--family", "renewal-reversed", "--alpha", "1/2"),
                                        ("--family", "ewens", "--theta", "1",
                                         "--method", "poisson-set", "--draws", "-1")])
    def test_out_of_range_param_exit2(self, capsys, params):
        code, out, err = run(capsys, "sample", "--n", "4", "--draws", "100",
                             "--seed", "1", *params)
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("alpha, theta", [("1/2", "1"), ("0.5", "1.0")])
    def test_two_param(self, capsys, alpha, theta):
        code, out, _ = run(capsys, "sample", "--family", "two-param", "--alpha", alpha,
                           "--theta", theta, "--n", "5", "--seed", "2", "--draws",
                           "4000", "--format", "json")
        assert code == 0
        tree = json.loads(out)
        cpf = markov_cpf(two_param_stationary_pair(F(1, 2), 1))
        want = [4000 * float(cpf(c)) for c in enumerate_compositions(5)]
        assert tree["draws"] == 4000 and sum(r["count"] for r in tree["rows"]) == 4000
        assert [r["expected"] for r in tree["rows"]] == pytest.approx(want, rel=1e-12)

    def test_markov_table_matches_two_param(self, capsys, tmp_path):
        # the same pair read from a file draws the same stream
        mf = write_pair(tmp_path / "pair.txt", two_param_stationary_pair(F(1, 2), 1), 5)
        argv = ("--n", "5", "--seed", "4", "--draws", "3000")
        code, table, _ = run(capsys, "sample", "--family", "markov-table",
                             "--matrix-file", mf, *argv)
        assert code == 0
        _, want, _ = run(capsys, "sample", "--family", "two-param", "--alpha", "1/2",
                         "--theta", "1", *argv)
        assert table == want and sum(map(int, text_rows(table).values())) == 3000

    def test_markov_table_that_is_not_right_consistent_exit2(self, capsys, tmp_path):
        # the q* := q control has laws for rows, but no growth hazard
        q = two_param_q(F(1, 2), 1)
        mf = write_pair(tmp_path / "control.txt", DecrementMatrixPair(q=q, qstar=q), 6)
        code, out, err = run(capsys, "sample", "--family", "markov-table",
                             "--matrix-file", mf, "--n", "6", "--seed", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "not right-consistent" in err

    def test_markov_table_without_file_exit2(self, capsys):
        code, out, err = run(capsys, "sample", "--family", "markov-table",
                             "--n", "3", "--seed", "1")
        assert (code, out) == (2, "")
        assert err == "error: markov-table needs --matrix-file\n"

    @pytest.mark.parametrize("method", ["uniform-set", "poisson-set"])
    def test_set_methods_refuse_other_families(self, capsys, method):
        code, out, err = run(capsys, "sample", "--family", "renewal", "--alpha", "1/2",
                             "--n", "4", "--seed", "1", "--method", method)
        assert (code, out) == (2, "")
        assert err == f"error: --method {method} samples only --family ewens\n"

    @pytest.mark.parametrize("method", ["string", "uniform-set", "poisson-set"])
    def test_ewens_without_theta_exit2(self, capsys, method):
        code, out, err = run(capsys, "sample", "--family", "ewens", "--n", "4",
                             "--seed", "1", "--method", method)
        assert (code, out) == (2, "")
        assert err == "error: ewens needs --theta\n"

    def test_unwritable_log_file_exit2(self, capsys, tmp_path):
        log = tmp_path / "absent" / "draws.log"
        code, out, err = run(capsys, "sample", "--family", "ewens", "--theta", "1",
                             "--n", "3", "--seed", "9", "--log-file", str(log))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "cannot write log file" in err

    def test_log_file(self, capsys, tmp_path):
        log = tmp_path / "draws.log"
        code, _, _ = run(capsys, "sample", "--family", "ewens", "--theta", "1",
                         "--n", "3", "--seed", "9", "--draws", "50",
                         "--log-file", str(log))
        assert code == 0
        lines = log.read_text().splitlines()
        assert len(lines) == 50
        assert all(len(l) == 3 and l[0] == "1" for l in lines)


class TestCheckCommand:
    def test_two_param_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--family", "two-param", "--alpha",
                           "1/2", "--theta", "1", "--n-max", "6")
        assert code == 0
        assert "[pass]" in out and "[FAIL]" not in out

    def test_two_param_without_alpha_exit2(self, capsys):
        code, out, err = run(capsys, "check", "--family", "two-param", "--theta", "1",
                             "--n-max", "5")
        assert (code, out) == (2, "")
        assert err == "error: two-param needs --alpha and --theta\n"

    def test_decimal_two_param_passes(self, capsys):
        # float q*(1:1) is 0.9999999999999991; the structural moments take
        # p(1) within 1e-9 of 1 in float mode
        code, out, _ = run(capsys, "check", "--family", "two-param", "--alpha",
                           "0.5", "--theta", "1.0", "--n-max", "7")
        assert code == 0
        assert out.count("[pass]") == 4 and "float" in out

    def test_regenerative_control_fails(self, capsys):
        code, out, _ = run(capsys, "check", "--family", "two-param", "--alpha",
                           "1/2", "--theta", "1", "--n-max", "6",
                           "--control", "regenerative")
        assert code == 1
        assert "[FAIL]" in out

    def test_control_at_alpha_zero_passes(self, capsys):
        code, _, _ = run(capsys, "check", "--family", "two-param", "--alpha",
                         "0", "--theta", "1", "--n-max", "6",
                         "--control", "regenerative")
        assert code == 0

    def test_control_applies_to_every_family(self, capsys):
        # Ewens is regenerative (q* = q), so its control is the law itself;
        # the forward renewal law is the stationary (alpha, alpha) pair, whose
        # control is not right-consistent
        code, out, _ = run(capsys, "check", "--family", "ewens", "--theta", "1",
                           "--control", "regenerative")
        assert code == 0 and out.count("[pass]") == 4
        code, out, _ = run(capsys, "check", "--family", "renewal", "--alpha", "1/2",
                           "--n-max", "8", "--control", "regenerative")
        assert code == 1 and "[FAIL] right-consistency" in out

    @pytest.mark.parametrize("family, param", [("ewens", ("--theta", "1/2")),
                                               ("renewal", ("--alpha", "1/2")),
                                               ("renewal-reversed", ("--alpha", "1/2"))])
    def test_every_family_runs_the_four_reports(self, capsys, family, param):
        code, out, _ = run(capsys, "check", "--family", family, *param, "--n-max", "8")
        reports = [tuple(line.split()[:2]) for line in out.splitlines()]
        assert [name for _, name in reports] == [
            "decrement-recursions", "right-consistency", "uniform-consistency",
            "theorem-S=L"]
        # the reversed renewal law is sampling consistent, but neither right
        # consistent nor of the Markov form that Theorem S=L characterises
        failed = {name for verdict, name in reports if verdict == "[FAIL]"}
        if family == "renewal-reversed":
            assert (code, failed) == (1, {"right-consistency", "theorem-S=L"})
        else:
            assert (code, failed) == (0, set())

    def test_matrix_file_family(self, capsys, tmp_path):
        from fractions import Fraction as F

        from compstruct.laws import two_param_stationary_pair
        from compstruct.tables import format_value

        pair = two_param_stationary_pair(F(1, 2), 1)
        lines = []
        for n in range(1, 7):
            for r in range(1, n + 1):
                lines.append(f"q {n} {r} {format_value(pair.q(n, r))}")
                lines.append(f"q* {n} {r} {format_value(pair.qstar(n, r))}")
        mf = tmp_path / "pair.txt"
        mf.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "check", "--family", "markov-table",
                           "--matrix-file", str(mf), "--n-max", "5")
        assert code == 0 and "[pass]" in out

    def test_json_lists_the_verdicts_and_the_control_witness(self, capsys):
        argv = ("check", "--family", "two-param", "--alpha", "1/2", "--theta", "1",
                "--n-max", "6", "--format", "json")
        code, out, _ = run(capsys, *argv)
        checks = json.loads(out)["checks"]
        assert code == 0
        assert [c["name"] for c in checks] == [
            "decrement-recursions", "right-consistency", "uniform-consistency",
            "theorem-S=L"]
        assert all(c["verdict"] == "pass" and c["mode"] == "exact" for c in checks)
        code, out, _ = run(capsys, *argv, "--control", "regenerative")
        failed = [c for c in json.loads(out)["checks"] if c["verdict"] == "fail"]
        assert code == 1 and failed
        assert all(c["witness"] for c in failed)


class TestReconstructCommand:
    def test_roundtrip(self, capsys, tmp_path):
        from compstruct.laws import ewens_cpf
        from compstruct.structural import structural_moments
        from compstruct.tables import format_value

        mom = structural_moments(ewens_cpf(1), 7)
        mf = tmp_path / "moments.txt"
        mf.write_text("\n".join(format_value(mom(n)) for n in range(1, 8)) + "\n")
        code, out, _ = run(capsys, "reconstruct", "--moments", str(mf),
                           "--roundtrip-family", "ewens", "--theta", "1",
                           "--n", "5")
        assert code == 0
        assert "# roundtrip ewens: pass" in out

    @pytest.mark.parametrize("theta, code, verdict", [("1.0", 0, "pass"), ("0.5", 1, "FAIL")])
    def test_float_roundtrip_compares_within_tolerance(self, capsys, tmp_path, theta, code,
                                                       verdict):
        # exact Ewens(1) moments against a float reference: equal within
        # verify.FLOAT_TOL at theta = 1.0, a different law at theta = 0.5
        from compstruct.laws import ewens_cpf
        from compstruct.structural import structural_moments

        mom = structural_moments(ewens_cpf(1), 6)
        mf = tmp_path / "moments.txt"
        mf.write_text("\n".join(tables.moments_lines([mom(n) for n in range(1, 7)])) + "\n")
        got, out, _ = run(capsys, "reconstruct", "--moments", str(mf),
                          "--roundtrip-family", "ewens", "--theta", theta)
        assert got == code
        assert f"# roundtrip ewens: {verdict}" in out

    def test_roundtrip_json(self, capsys, tmp_path):
        from compstruct.laws import ewens_cpf
        from compstruct.structural import structural_moments

        mom = structural_moments(ewens_cpf(F(1, 2)), 6)
        mf = tmp_path / "moments.txt"
        mf.write_text("\n".join(tables.moments_lines([mom(n) for n in range(1, 7)])) + "\n")
        code, out, _ = run(capsys, "reconstruct", "--moments", str(mf),
                           "--roundtrip-family", "ewens", "--theta", "1/2",
                           "--format", "json")
        tree = json.loads(out)
        assert code == 0 and tree["roundtrip"] is True
        assert tree["cpf"]["total"] == "1/1" and len(tree["cpf"]["rows"]) == 1 << 4
        assert len(tree["q"]) == 15 and len(tree["qstar"]) == 21
        assert tree["q"][0] == tree["qstar"][0] == "1\t1\t1/1"

    def test_infeasible_exit4(self, capsys, tmp_path):
        mf = tmp_path / "moments.txt"
        mf.write_text("1\n9/10\n8/10\n")
        code, _, err = run(capsys, "reconstruct", "--moments", str(mf))
        assert code == 4 and "infeasible" in err

    def test_integer_entry_reads_exact(self, capsys, tmp_path):
        # "1" and "1/1" are the same exact p(1): both files give exact rows
        outs = []
        for first in ("1", "1/1"):
            mf = tmp_path / f"moments-{len(outs)}.txt"
            mf.write_text(f"{first}\n1/2\n3/8\n5/16\n")
            code, out, _ = run(capsys, "reconstruct", "--moments", str(mf))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert "q\t3\t1\t3/5" in outs[0]

    def test_table_past_the_cap_exit3(self, capsys, tmp_path):
        # moments p(1..N+1) with N = MAX_ENUM_N + 1 ask for a CPF table past the cap
        from compstruct.laws import ewens_cpf
        from compstruct.structural import structural_moments

        mom = structural_moments(ewens_cpf(1), MAX_ENUM_N + 2)
        mf = tmp_path / "moments.txt"
        mf.write_text("\n".join(tables.moments_lines(
            [mom(n) for n in range(1, MAX_ENUM_N + 3)])) + "\n")
        code, out, err = run(capsys, "reconstruct", "--moments", str(mf))
        assert (code, out) == (3, "") and "enumeration cap" in err
        code, out, _ = run(capsys, "reconstruct", "--moments", str(mf), "--n", "3")
        assert code == 0 and "# total\t1/1" in out

    def test_malformed_moments_file_exit2(self, capsys, tmp_path):
        mf = tmp_path / "moments.txt"
        mf.write_text("1\nabc\n")
        code, out, err = run(capsys, "reconstruct", "--moments", str(mf))
        assert (code, out) == (2, "")
        assert err == f"error: {mf}: line 2: bad moment line 'abc'\n"

    def test_moment_index_gap_exit2(self, capsys, tmp_path):
        # p(3) is not given: the file must not be read as p(1..3)
        mf = tmp_path / "moments.txt"
        mf.write_text("1\t1/1\n2\t1/2\n4\t1/4\n")
        code, out, err = run(capsys, "reconstruct", "--moments", str(mf))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {mf}: line 3: moment index 4, expected 3")

    def test_repeated_moment_index_exit2(self, capsys, tmp_path):
        mf = tmp_path / "moments.txt"
        mf.write_text("1\t1/1\n2\t1/2\n2\t1/3\n3\t1/4\n")
        code, out, err = run(capsys, "reconstruct", "--moments", str(mf))
        assert (code, out) == (2, "")
        assert err == f"error: {mf}: line 3: moment index 2 repeats line 2\n"

    def test_missing_moments_file_exit2(self, capsys, tmp_path):
        code, out, err = run(capsys, "reconstruct", "--moments",
                             str(tmp_path / "absent.txt"))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "cannot read moments file" in err


@pytest.mark.parametrize("argv", [
    ("cpf", "--family", "ewens", "--theta", "1", "--n"),
    ("sample", "--family", "ewens", "--theta", "1", "--seed", "1", "--n"),
    ("check", "--family", "ewens", "--theta", "1", "--n-max"),
    ("fragment", "--outer", "ewens", "--outer-theta", "1", "--inner", "ewens",
     "--inner-theta", "1", "--n"),
    ("reconstruct", "--moments", "{moments}", "--n"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("size", ["0", "-3"])
def test_size_below_one_exit2(capsys, tmp_path, argv, size):
    mf = tmp_path / "moments.txt"
    mf.write_text("1\n1/2\n1/3\n")
    code, out, err = run(capsys, *(a.format(moments=mf) for a in argv), size)
    assert (code, out) == (2, "")
    assert err == f"error: {argv[-1]} must be >= 1, got {size}\n"


@pytest.mark.parametrize("argv", [
    ("sample", "--family", "ewens", "--theta", "1", "--seed", "1", "--n"),
    ("check", "--family", "ewens", "--theta", "1", "--n-max"),
    ("fragment", "--outer", "ewens", "--outer-theta", "1", "--inner", "ewens",
     "--inner-theta", "1", "--n"),
], ids=lambda argv: argv[0])
def test_size_above_the_cap_exit3(capsys, argv):
    code, out, err = run(capsys, *argv, str(MAX_ENUM_N + 1))
    assert (code, out) == (3, "") and "enumeration cap" in err


class TestArrangeCommand:
    def test_counts_and_determinism(self, capsys):
        argv = ("arrange", "--partition", "2,1,1", "--alpha", "1/2",
                "--theta", "1", "--seed", "3", "--draws", "300")
        code, out1, _ = run(capsys, *argv)
        assert code == 0
        counted = {line.split("\t")[0]: int(line.split("\t")[1])
                   for line in out1.splitlines() if not line.startswith("#")}
        # only arrangements of (2,1,1) receive mass
        assert sum(counted.values()) == 300
        assert {k for k, v in counted.items() if v} <= {"1011", "1101", "1110"}
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_expected_column_is_the_conditional_law(self, capsys):
        # arranged (1/2, 1/2) partitions follow the stationary (1/2, 1) law;
        # given the parts, the law is that CPF restricted to the class
        from fractions import Fraction as F

        from compstruct.composition import Partition, enumerate_compositions
        from compstruct.laws import markov_cpf, two_param_stationary_pair

        code, out, _ = run(capsys, "arrange", "--partition", "3,2,1,1", "--alpha",
                           "1/2", "--theta", "1/2", "--seed", "3", "--draws", "400",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert sum(row["expected"] for row in rows) == pytest.approx(400, abs=1e-9)
        mk = markov_cpf(two_param_stationary_pair(F(1, 2), 1))
        comps = enumerate_compositions(7)
        mass = [mk(c) if c.rank() == Partition((3, 2, 1, 1)) else 0 for c in comps]
        want = [400 * float(m / sum(mass)) for m in mass]
        assert [row["expected"] for row in rows] == pytest.approx(want, abs=1e-9)
        assert all(row["count"] == 0 for row, w in zip(rows, want) if w == 0)

    def test_cap_exceeded_exit3(self, capsys):
        code, _, err = run(capsys, "arrange", "--partition", "10,10", "--alpha",
                           "1/2", "--theta", "1", "--seed", "3")
        assert code == 3 and "cap" in err

    @pytest.mark.parametrize("alpha, theta", [("1", "1"), ("1/2", "-1")])
    def test_out_of_range_param_exit2(self, capsys, alpha, theta):
        code, out, err = run(capsys, "arrange", "--partition", "2,1", "--alpha",
                             alpha, "--theta", theta, "--seed", "3")
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("params, message", [
        (("--alpha", "1/2"), "arrange needs --alpha and --theta"),
        (("--theta", "1"), "arrange needs --alpha and --theta"),
        (("--alpha", "1/2", "--theta", "1", "--draws", "-1"), "draws must be >= 0, got -1"),
    ])
    def test_missing_param_or_negative_draws_exit2(self, capsys, params, message):
        code, out, err = run(capsys, "arrange", "--partition", "2,1", "--seed", "1", *params)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_bad_partition_exit2(self, capsys):
        code, _, _ = run(capsys, "arrange", "--partition", "2,0", "--alpha",
                         "1/2", "--theta", "1", "--seed", "3")
        assert code == 2

    def test_sixteen_ones(self, capsys):
        # one arrangement, found without walking the 16! orderings
        code, out, _ = run(capsys, "arrange", "--partition", ",".join("1" * 16),
                           "--alpha", "1/2", "--theta", "1", "--seed", "3",
                           "--draws", "50", "--format", "json")
        rows = json.loads(out)["rows"]
        assert code == 0
        assert [(r["binary"], r["count"], r["expected"]) for r in rows if r["expected"]] \
            == [("1" * 16, 50, 50.0)]


@pytest.mark.parametrize("argv", [
    ("arrange", "--partition", "2,1", "--alpha", "1/2", "--theta", "1", "--seed", "3",
     "--matrix-file", "pair.txt"),
    ("fragment", "--outer", "ewens", "--outer-theta", "1", "--inner", "ewens",
     "--inner-theta", "1", "--n", "4", "--alpha", "1/2"),
    ("fragment", "--outer", "ewens", "--outer-theta", "1", "--inner", "ewens",
     "--inner-theta", "1", "--n", "4", "--theta", "zzz"),
], ids=["arrange-matrix-file", "fragment-alpha", "fragment-theta"])
def test_flags_a_command_does_not_read_exit2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestFragmentCommand:
    def test_table_normalizes(self, capsys):
        code, out, _ = run(capsys, "fragment", "--outer", "ewens",
                           "--outer-theta", "1", "--inner", "renewal-reversed",
                           "--inner-alpha", "1/2", "--n", "4")
        assert code == 0
        assert "# total\t1/1" in out

    def test_markov_table_outer_reads_matrix_file(self, capsys, tmp_path):
        # the Ewens(1) rows as a file give the same table as --outer ewens
        mf = write_pair(tmp_path / "ewens.txt", ewens_pair(1), 4)
        inner = ("--inner", "ewens", "--inner-theta", "1", "--n", "4")
        code, out, _ = run(capsys, "fragment", "--outer", "markov-table",
                           "--matrix-file", mf, *inner)
        assert code == 0
        _, ref, _ = run(capsys, "fragment", "--outer", "ewens", "--outer-theta", "1", *inner)
        assert text_rows(out) == text_rows(ref)


class TestImportBoundary:
    """Only ``sample`` and ``arrange`` load numpy; the exact commands never do."""

    def test_package_and_cli_load_no_numpy(self):
        run_without("numpy", "import compstruct, compstruct.cli\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("alpha, theta", [("1/2", "1"), ("0.5", "1.0")],
                             ids=["exact", "decimal"])
    def test_exact_commands_load_no_numpy(self, tmp_path, fmt, alpha, theta):
        from compstruct.laws import ewens_cpf
        from compstruct.structural import structural_moments

        mom = structural_moments(ewens_cpf(1), 6)
        mf = tmp_path / "moments.txt"
        mf.write_text("\n".join(tables.moments_lines([mom(n) for n in range(1, 7)])) + "\n")
        pair = ["--family", "two-param", "--alpha", alpha, "--theta", theta]
        runs = [
            (["cpf", *pair, "--n", "6"], (0,)),
            (["check", *pair, "--n-max", "6"], (0,)),
            (["check", *pair, "--n-max", "6", "--control", "regenerative"], (1,)),
            (["fragment", "--outer", "two-param", "--outer-alpha", alpha, "--outer-theta",
              theta, "--inner", "ewens", "--inner-theta", theta, "--n", "5"], (0,)),
            (["reconstruct", "--moments", str(mf), "--roundtrip-family", "ewens",
              "--theta", theta], (0,)),
        ]
        run_without("numpy", "from compstruct.cli import main\n" + "".join(
            f"assert main({argv + ['--format', fmt]!r}) in {want!r}\n" for argv, want in runs))

    def test_sampling_commands_run_in_a_fresh_process(self):
        run_fresh("import sys\n"
                  "from compstruct.cli import main\n"
                  "assert main(['sample', '--family', 'two-param', '--alpha', '0.5',\n"
                  "             '--theta', '1.0', '--n', '5', '--seed', '1']) == 0\n"
                  "assert main(['arrange', '--partition', '2,1,1', '--alpha', '1/2',\n"
                  "             '--theta', '1', '--seed', '1']) == 0\n"
                  "assert 'numpy' in sys.modules\n")

    def test_lazy_names_are_the_stochastic_objects(self):
        run_fresh("import sys\n"
                  "import compstruct\n"
                  "assert 'compstruct.stochastic' not in sys.modules\n"
                  "for name in compstruct._STOCHASTIC_NAMES:\n"
                  "    assert getattr(compstruct, name) is getattr(compstruct.stochastic, name)\n"
                  "assert compstruct._STOCHASTIC_NAMES == set(compstruct.stochastic.__all__)\n"
                  "try:\n"
                  "    compstruct.no_such_name\n"
                  "except AttributeError as exc:\n"
                  "    assert 'no_such_name' in str(exc)\n"
                  "else:\n"
                  "    raise AssertionError('compstruct.no_such_name resolved')\n")
