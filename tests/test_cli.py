"""End-to-end CLI: exit codes, tables, determinism, file handling."""

import json
from fractions import Fraction as F

import pytest

from compstruct import tables
from compstruct.cli import main
from compstruct.composition import enumerate_compositions
from compstruct.laws import (DecrementMatrixPair, markov_cpf, two_param_q,
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


def text_rows(out):
    return dict(line.split("\t")[:2] for line in out.splitlines()
                if not line.startswith("#"))


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

    def test_control_needs_matrix_family(self, capsys):
        code, _, _ = run(capsys, "check", "--family", "ewens", "--theta", "1",
                         "--control", "regenerative")
        assert code == 2

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

    def test_infeasible_exit4(self, capsys, tmp_path):
        mf = tmp_path / "moments.txt"
        mf.write_text("1\n9/10\n8/10\n")
        code, _, err = run(capsys, "reconstruct", "--moments", str(mf))
        assert code == 4 and "infeasible" in err


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

    def test_bad_partition_exit2(self, capsys):
        code, _, _ = run(capsys, "arrange", "--partition", "2,0", "--alpha",
                         "1/2", "--theta", "1", "--seed", "3")
        assert code == 2


class TestFragmentCommand:
    def test_table_normalizes(self, capsys):
        code, out, _ = run(capsys, "fragment", "--outer", "ewens",
                           "--outer-theta", "1", "--inner", "renewal-reversed",
                           "--inner-alpha", "1/2", "--n", "4")
        assert code == 0
        assert "# total\t1/1" in out
