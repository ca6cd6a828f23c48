"""Consistency checkers: positive runs, negative controls, statistical gates."""

import os
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

import compstruct
from compstruct.composition import Composition
from compstruct.laws import (DecrementMatrix, DecrementMatrixPair, ewens_cpf,
                             markov_cpf, renewal_cpf, two_param_q,
                             two_param_stationary_pair)
from compstruct.verify import (check_decrement_recursions,
                               check_left_consistency,
                               check_right_consistency, check_theorem_SL,
                               check_uniform_consistency, chi_square_gof,
                               ks_against_cdf, ks_two_sample)

C = Composition


class TestExactCheckers:
    def test_ewens_passes_everything(self):
        cpf = ewens_cpf(1)
        for check in (check_right_consistency, check_uniform_consistency,
                      check_theorem_SL):
            rep = check(cpf, 8)
            assert rep.passed and rep.mode == "exact", str(rep)

    def test_stationary_passes_everything(self):
        cpf = markov_cpf(two_param_stationary_pair(F(1, 2), 1))
        for check in (check_right_consistency, check_uniform_consistency,
                      check_theorem_SL):
            assert check(cpf, 7).passed

    def test_renewal_right_but_not_left(self):
        # the renewal CPF regenerates left to right: appending on the right
        # is consistent, prepending is not
        cpf = renewal_cpf(F(1, 2))
        assert check_right_consistency(cpf, 8).passed
        rep = check_left_consistency(cpf, 8)
        assert not rep.passed
        witness, lhs, rhs = rep.worst
        assert lhs != rhs

    def test_ewens_left_consistency_fails_with_witness(self):
        # the Bernoulli string grows on the right only; the checker pins the
        # violation down to a specific composition with both sides
        rep = check_left_consistency(ewens_cpf(1), 8)
        assert not rep.passed
        witness, lhs, rhs = rep.worst
        assert witness == C((2,)) and lhs == F(1, 2) and rhs == F(2, 3)

    def test_reversed_renewal_left_but_not_right(self):
        cpf = renewal_cpf(F(1, 2), reversed_=True)
        assert check_left_consistency(cpf, 8).passed
        assert not check_right_consistency(cpf, 8).passed

    def test_regenerative_control_right_consistency(self):
        # q* := q turns the product formula into the reversed regenerative
        # composition: right-consistency fails for alpha > 0, holds at
        # alpha = 0 (Ewens), and uniform consistency always holds
        q = two_param_q(F(1, 2), 1)
        cpf = markov_cpf(DecrementMatrixPair(q, q, "control"))
        assert not check_right_consistency(cpf, 6).passed
        assert check_uniform_consistency(cpf, 6).passed

        q0 = two_param_q(0, 1)
        cpf0 = markov_cpf(DecrementMatrixPair(q0, q0, "control-ewens"))
        assert check_right_consistency(cpf0, 6).passed

    def test_float_mode_tolerance(self):
        cpf = markov_cpf(two_param_stationary_pair(0.5, 1.0))
        rep = check_uniform_consistency(cpf, 6)
        assert rep.passed and rep.mode == "float"

    def test_report_str(self):
        rep = check_right_consistency(ewens_cpf(1), 4)
        assert "pass" in str(rep) and "right-consistency" in str(rep)


class TestDecrementRecursions:
    def test_stationary_pair_passes(self):
        pair = two_param_stationary_pair(F(1, 2), 1)
        rep = check_decrement_recursions(pair, 8)
        assert rep.passed and rep.mode == "exact"

    def test_perturbed_matrix_fails(self):
        pair0 = two_param_stationary_pair(F(1, 2), 1)

        def bumped(n, r):
            v = pair0.q(n, r)
            return v + F(1, 100) if (n, r) == (4, 2) else v

        pair = DecrementMatrixPair(DecrementMatrix("bumped", bumped),
                                   pair0.qstar, "perturbed")
        rep = check_decrement_recursions(pair, 6)
        assert not rep.passed
        assert rep.worst is not None


class TestChiSquare:
    def test_exact_match_high_p(self):
        probs = [0.25, 0.25, 0.25, 0.25]
        counts = [2500, 2500, 2500, 2500]
        stat, p, df = chi_square_gof(counts, probs)
        assert stat == 0.0 and p == 1.0 and df == 3

    def test_calibration(self):
        # sampling from the true law should rarely reject at 1e-3
        rng = np.random.default_rng(7)
        probs = [0.5, 0.3, 0.2]
        rejections = 0
        for _ in range(50):
            counts = rng.multinomial(2000, probs)
            _, p, _ = chi_square_gof(counts, probs)
            rejections += p < 1e-3
        assert rejections == 0

    def test_power(self):
        # a visibly wrong law is rejected
        rng = np.random.default_rng(8)
        counts = rng.multinomial(20000, [0.5, 0.3, 0.2])
        _, p, _ = chi_square_gof(counts, [0.4, 0.4, 0.2])
        assert p < 1e-6

    def test_pooling_small_cells(self):
        # tiny expected cells get pooled: df drops accordingly
        probs = [0.9, 0.0999, 0.00005, 0.00005]
        counts = [9000, 998, 1, 1]
        _, _, df = chi_square_gof(counts, probs)
        assert df == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chi_square_gof([], [])
        with pytest.raises(ValueError):
            chi_square_gof([1, 2], [0.5])

    @pytest.mark.parametrize("cells", [2, 4, 8, 31])
    def test_pvalue_equals_chi2_sf(self, cells):
        from scipy.stats import chi2

        probs = [1 / cells] * cells
        for delta in (0, 3, 10, 30, 60):
            counts = [100 + delta, 100 - delta] + [100] * (cells - 2)
            stat, p, df = chi_square_gof(counts, probs)
            assert df == cells - 1
            assert p == chi2.sf(stat, df)

    def test_does_not_import_scipy_stats(self):
        # scipy.stats takes far longer to import than scipy.special
        code = ("import sys, compstruct\n"
                "from compstruct.verify import chi_square_gof\n"
                "chi_square_gof([10, 20], [0.5, 0.5])\n"
                "assert 'scipy.special' in sys.modules\n"
                "assert 'scipy.stats' not in sys.modules\n")
        src = os.path.dirname(os.path.dirname(compstruct.__file__))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


class TestKs:
    def test_two_sample_same_law(self):
        rng = np.random.default_rng(9)
        xs = rng.beta(2.0, 3.0, size=5000)
        ys = rng.beta(2.0, 3.0, size=5000)
        _, p = ks_two_sample(xs, ys)
        assert p > 1e-3

    def test_two_sample_power(self):
        rng = np.random.default_rng(10)
        xs = rng.beta(2.0, 3.0, size=5000)
        ys = rng.beta(3.0, 2.0, size=5000)
        _, p = ks_two_sample(xs, ys)
        assert p < 1e-6

    def test_against_cdf(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(size=5000)
        _, p = ks_against_cdf(xs, lambda x: np.clip(x, 0.0, 1.0))
        assert p > 1e-3
        _, p_bad = ks_against_cdf(xs ** 2, lambda x: np.clip(x, 0.0, 1.0))
        assert p_bad < 1e-6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])
        with pytest.raises(ValueError):
            ks_against_cdf([], lambda x: x)
