"""Consistency checkers: positive runs, negative controls, statistical gates."""

import os
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import compstruct
from compstruct.composition import Composition
from compstruct.laws import (Cpf, DecrementMatrix, DecrementMatrixPair, ewens_cpf,
                             markov_cpf, renewal_cpf, two_param_q,
                             two_param_stationary_pair)
from compstruct.ratmath import FLOAT_TOL, close
from compstruct.verify import (check_decrement_recursions,
                               check_right_consistency, check_theorem_SL,
                               check_uniform_consistency, chi_square_gof, _chi2_tail)

C = Composition


def check_left_consistency(cpf, n_max):
    """p(lam) = p(lam_1 + 1, ..) + p(1, lam_1, ..): right consistency of the reversed law."""
    return check_right_consistency(Cpf(cpf.name, lambda c: cpf(c.reverse())), n_max)


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

    def test_each_pair_is_compared_in_its_own_mode(self):
        # rows n <= 2 exact, larger ones floats: two rationals compare
        # exactly, a pair with a float within FLOAT_TOL
        exact = markov_cpf(two_param_stationary_pair(F(1, 2), 1))
        mixed = Cpf("mixed", lambda c: exact(c) if c.n <= 2 else float(exact(c)))
        rep = check_right_consistency(mixed, 6)
        assert rep.passed and rep.mode == "float", str(rep)
        bump = F(1, 10 ** 12)  # below FLOAT_TOL, yet not equal
        off = Cpf("off", lambda c: mixed(c) + (bump if c.parts == (2,) else 0))
        rep = check_right_consistency(off, 6)
        assert not rep.passed and rep.mode == "float"
        assert rep.worst == (C((1,)), F(1), F(1) + bump)

    def test_integer_valued_cpf_stays_exact(self):
        # int values divide into Fractions, so every check compares exactly
        one_block = Cpf("one-block", lambda c: 1 if c.num_parts == 1 else 0)
        for check in (check_right_consistency, check_uniform_consistency,
                      check_theorem_SL):
            rep = check(one_block, 6)
            assert rep.passed and rep.mode == "exact", str(rep)

    def test_a_check_that_compares_nothing_is_exact(self):
        rep = check_right_consistency(ewens_cpf(1.0), 1)
        assert rep.passed and rep.worst is None and rep.mode == "exact"

    def test_close_is_exact_for_rationals_only(self):
        assert close(F(1, 3), F(1, 3)) and not close(F(1, 3), F(1, 3) + F(1, 10 ** 12))
        assert close(F(1, 3), 1 / 3) and close(0.1 + 0.2, 0.3)
        assert close(1.0, 1.0 + FLOAT_TOL / 2) and not close(1.0, 1.0 + 2 * FLOAT_TOL)
        assert not close(float("nan"), float("nan"))

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


    def test_uniform_witness_of_a_perturbed_pair(self):
        # q*(4:.) moves 1/100 from r = 1 to r = 2: the row still sums to 1,
        # but the law is no longer sampling consistent
        pair0 = two_param_stationary_pair(F(1, 2), 1)

        def bumped(n, r):
            v = pair0.qstar(n, r)
            return v + {(4, 2): F(1, 100), (4, 1): F(-1, 100)}.get((n, r), 0)

        pair = DecrementMatrixPair(q=pair0.q, qstar=DecrementMatrix("q*", bumped))
        rep = check_uniform_consistency(markov_cpf(pair), 6)
        assert not rep.passed
        assert rep.worst == (C((1, 1, 2)), F(501, 2800), F(6, 35))


@st.composite
def rational_alpha_theta(draw):
    """Rational alpha in [0, 1) and theta > 0: a stationary (alpha, theta) pair."""
    a = draw(st.fractions(min_value=0, max_value=F(19, 20), max_denominator=20))
    return a, draw(st.fractions(min_value=F(1, 20), max_value=3, max_denominator=20))


@settings(max_examples=15, deadline=None)
@given(rational_alpha_theta())
@example((F(1, 2), 1))
@example((0, F(3, 2)))
def test_stationary_cpf_is_consistent_property(params):
    pair = two_param_stationary_pair(*params)
    cpf = markov_cpf(pair)
    for check in (check_right_consistency, check_uniform_consistency):
        rep = check(cpf, 7)
        assert rep.passed and rep.mode == "exact", str(rep)
    rep = check_decrement_recursions(pair, 12)
    assert rep.passed and rep.mode == "exact", str(rep)


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
        # the standard-library tail agrees with scipy's to 1e-10 relative
        from scipy.special import chdtrc

        probs = [1 / cells] * cells
        for delta in (0, 3, 10, 30, 60):
            counts = [100 + delta, 100 - delta] + [100] * (cells - 2)
            stat, p, df = chi_square_gof(counts, probs)
            assert df == cells - 1
            assert p == pytest.approx(chdtrc(df, stat), rel=1e-10, abs=0)

    def test_tail_matches_chdtrc_on_a_grid(self):
        # odd and even df, up to the 32768-cell count table of n = 16, from
        # the bulk to tails near the float range
        from scipy.special import chdtrc

        for df in [*range(1, 60), 100, 511, 512, 1023, 4095, 32767]:
            for x in (0.05 * df + 0.3, 0.5 * df, df, 1.5 * df, 3 * df):
                want = chdtrc(df, x)
                if want > 1e-300:
                    assert _chi2_tail(df, x) == pytest.approx(want, rel=1e-10, abs=0), (df, x)

    def test_tail_edges(self):
        stat, p, df = chi_square_gof([50, 50], [0.5, 0.5])
        assert (stat, p, df) == (0.0, 1.0, 1)
        # tails past the float range are 0.0, not NaN, for odd and even df
        for counts in ([10 ** 4, 0], [10 ** 4, 0, 0]):
            stat, p, df = chi_square_gof(counts, [1 / len(counts)] * len(counts))
            assert stat >= 1e4 and p == 0.0 and df == len(counts) - 1
        # a tail near 1 whose rounded terms sum past 1 is still a probability
        assert _chi2_tail(57, 0.11398470839575085) == 1.0
        # one cell after pooling: no degrees of freedom, the statistic kept
        assert chi_square_gof([4], [0.5]) == (2.0, 1.0, 0)
        assert chi_square_gof([1, 1, 1], [1 / 3] * 3)[1:] == (1.0, 0)

    def test_does_not_import_scipy_stats(self):
        # the p-value is a standard-library tail: no scipy module at all
        code = ("import sys, compstruct\n"
                "from compstruct.verify import chi_square_gof\n"
                "chi_square_gof([10, 20], [0.5, 0.5])\n"
                "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(compstruct.__file__))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

