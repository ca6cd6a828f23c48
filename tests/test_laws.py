"""Exact law families: Ewens, renewal, Markov product, Levy calculus."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from compstruct.composition import Composition, Partition, enumerate_compositions
from compstruct.laws import (DecrementMatrixPair, LevySpec, beta_meander,
                             ewens_cpf, levy_binomial, levy_exponent,
                             levy_exponent_exact, markov_cpf, meander_moments,
                             partition_law, polya_q, potential_from_levy,
                             pure_drift_meander, renewal_cpf, sibi_cpf,
                             stationary_pair, two_param_levy, two_param_q,
                             two_param_stationary_pair, upchain_transition)
from compstruct.ratmath import binom, rising

C = Composition


class TestEwens:
    def test_small_values(self):
        p = ewens_cpf(1)
        assert p(C((2,))) == F(1, 2)
        assert p(C((1, 1))) == F(1, 2)
        assert ewens_cpf(2)(C((2,))) == F(1, 3)
        assert ewens_cpf(2)(C((1, 1))) == F(2, 3)

    def test_n3_table(self):
        p = ewens_cpf(1)
        assert p(C((3,))) == F(1, 3)
        assert p(C((2, 1))) == F(1, 6)
        assert p(C((1, 2))) == F(1, 3)
        assert p(C((1, 1, 1))) == F(1, 6)

    def test_bernoulli_string_oracle(self):
        # independent digit probabilities theta/(j+theta-1) reproduce the CPF
        theta = F(3, 2)
        p = ewens_cpf(theta)
        for n in range(1, 8):
            for c in enumerate_compositions(n):
                bits = c.to_binary()
                prob = F(1)
                for j in range(2, n + 1):
                    pj = F(theta, j + theta - 1)
                    prob *= pj if bits[j - 1] == "1" else 1 - pj
                assert p(c) == prob

    @pytest.mark.parametrize("theta", [F(1, 2), 1, 2])
    def test_normalization(self, theta):
        p = ewens_cpf(theta)
        for n in range(1, 9):
            assert sum(p(c) for c in enumerate_compositions(n)) == 1

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            ewens_cpf(0)

    def test_float_mode(self):
        p = ewens_cpf(1.0)
        assert p(C((2,))) == pytest.approx(0.5)


class TestRenewal:
    def test_n3_table(self):
        p = renewal_cpf(F(1, 2))
        assert p(C((3,))) == F(3, 8)
        assert p(C((2, 1))) == F(1, 8)
        assert p(C((1, 2))) == F(1, 4)
        assert p(C((1, 1, 1))) == F(1, 4)

    def test_reversed(self):
        p = renewal_cpf(F(1, 2), reversed_=True)
        assert p(C((2, 1))) == F(1, 4)
        assert p(C((1, 2))) == F(1, 8)

    def test_renewal_string_oracle(self):
        # spacings P(X = r) = alpha (1-alpha)_{r-1} / r! drive a renewal
        # process on the digits: each box start is a renewal, and the last
        # box only requires the next renewal to fall beyond digit n
        import math

        alpha = F(1, 3)
        p = renewal_cpf(alpha)

        def spacing(r):
            return alpha * rising(1 - alpha, r - 1) / math.factorial(r)

        for n in range(1, 7):
            for c in enumerate_compositions(n):
                prob = F(1)
                for part in c.parts[:-1]:
                    prob *= spacing(part)
                tail = 1 - sum(spacing(r) for r in range(1, c.last_part))
                assert p(c) == prob * tail

    @pytest.mark.parametrize("alpha", [F(1, 3), F(1, 2), F(2, 3)])
    def test_normalization(self, alpha):
        p = renewal_cpf(alpha)
        for n in range(1, 9):
            assert sum(p(c) for c in enumerate_compositions(n)) == 1

    def test_invalid_alpha(self):
        for bad in (0, 1, -F(1, 2)):
            with pytest.raises(ValueError):
                renewal_cpf(bad)


class TestPolyaAndTwoParam:
    def test_polya_rows_sum(self):
        q = polya_q(F(1, 2), F(1, 2))
        for n in range(1, 11):
            assert sum(q(n, r) for r in range(1, n + 1)) == 1

    def test_polya_alpha0_is_ewens_first_pick(self):
        # at alpha=0 the size-biased pick from an Ewens partition
        q = polya_q(0, 2)
        assert q(2, 1) == F(2, 3)
        assert q(2, 2) == F(1, 3)

    def test_two_param_rows_sum(self):
        for a, t in [(F(1, 2), 1), (F(1, 3), F(2, 3)), (0, 1)]:
            q = two_param_q(a, t)
            for n in range(1, 11):
                assert sum(q(n, r) for r in range(1, n + 1)) == 1

    def test_two_param_explicit_entry(self):
        # q(n:r) = C(n,r) (1-a)_{r-1}/(t+n-r)_r * ((n-r)a + rt)/n
        a, t = F(1, 2), 1
        q = two_param_q(a, t)
        n, r = 4, 2
        expect = (binom(n, r) * rising(1 - a, r - 1) / rising(t + n - r, r)
                  * ((n - r) * a + r * t) / n)
        assert q(n, r) == expect

    def test_alpha0_regenerative_equals_stationary(self):
        for theta in (F(1, 2), 1, 2):
            q = two_param_q(0, theta)
            qs = polya_q(0, theta)
            for n in range(1, 9):
                for r in range(1, n + 1):
                    assert q(n, r) == qs(n, r)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            two_param_q(F(3, 2), 1)
        with pytest.raises(ValueError):
            two_param_q(F(1, 2), -1)


class TestMarkovCpf:
    def test_product_formula(self):
        pair = two_param_stationary_pair(F(1, 2), 1)
        p = markov_cpf(pair)
        lam = C((1, 2, 1))
        expect = (pair.qstar(4, 1) * pair.q(1, 1) * pair.q(3, 2))
        assert p(lam) == expect

    def test_normalization(self):
        for a, t in [(F(1, 2), 1), (F(1, 3), F(2, 3))]:
            p = markov_cpf(two_param_stationary_pair(a, t))
            for n in range(1, 9):
                assert sum(p(c) for c in enumerate_compositions(n)) == 1


class TestLevyCalculus:
    def test_exact_exponent_two_param(self):
        # normalized so that the mean of the stationary delay is 1:
        # Phi(s) = s (theta)_s / (1-alpha+theta)_s
        spec = two_param_levy(F(1, 2), 1)
        assert levy_exponent_exact(spec, 1) == F(2, 3)
        assert levy_exponent_exact(spec, 2) == F(16, 15)
        # ratio Phi(2)/Phi(1) is normalization-free
        assert levy_exponent_exact(spec, 2) / levy_exponent_exact(spec, 1) == F(8, 5)

    def test_exponent_quadrature_agrees(self):
        # the float path carries the raw exponent; dividing by the log-moment
        # m aligns it with the mean-one normalization of the exact path
        for a, t in [(F(1, 2), 1), (F(1, 3), F(2, 3))]:
            spec = two_param_levy(a, t)
            m = spec.log_moment()
            for s in range(1, 8):
                exact = float(levy_exponent_exact(spec, s))
                quad = levy_exponent(spec, s) / m
                assert quad == pytest.approx(exact, abs=1e-9)

    def test_decrement_entries_float_vs_exact(self):
        # q(n:m) is a ratio, so both arithmetic modes must agree directly
        for a, t in [(F(1, 2), 1), (F(1, 3), F(2, 3))]:
            spec = two_param_levy(a, t)
            for n in range(1, 11):
                phi_n = levy_exponent(spec, n)
                for r in range(1, n + 1):
                    fl = levy_binomial(spec, n, r, exact=False) / phi_n
                    ex = float(levy_binomial(spec, n, r, exact=True)
                               / levy_exponent_exact(spec, n))
                    assert fl == pytest.approx(ex, abs=1e-9)

    def test_ewens_exponent(self):
        # alpha = 0: Phi(n) = n theta / (n + theta), so q(n:.) telescopes
        spec = two_param_levy(0, 2)
        for n in range(1, 8):
            assert levy_exponent_exact(spec, n) == F(2 * n, n + 2)

    def test_binomial_rows_sum(self):
        spec = two_param_levy(F(1, 2), 1)
        for n in range(1, 9):
            total = sum(levy_binomial(spec, n, m, exact=True)
                        for m in range(1, n + 1))
            assert total == levy_exponent_exact(spec, n)

    def test_qPhi_equals_qnu1(self):
        # decrement entries from the Levy exponent match the closed form
        for a, t in [(F(1, 2), 1), (F(1, 3), F(2, 3))]:
            spec = two_param_levy(a, t)
            closed = two_param_q(a, t)
            for n in range(1, 11):
                phi_n = levy_exponent_exact(spec, n)
                for r in range(1, n + 1):
                    assert levy_binomial(spec, n, r, exact=True) / phi_n \
                        == closed(n, r)

    def test_pure_drift(self):
        spec = LevySpec(drift=1, tail=None, alpha=None, theta=None,
                        label="drift")
        assert levy_exponent_exact(spec, 5) == 5
        assert levy_binomial(spec, 5, 1, exact=True) == 5
        assert levy_binomial(spec, 5, 2, exact=True) == 0


class TestMeander:
    def test_beta_meander_moments(self):
        law = beta_meander(F(1, 2), 1)
        # Psi(1:1) = E A_1 = (1-a)/(1-a+t) = 1/3
        assert meander_moments(law, 1, 1) == F(1, 3)
        for n in range(1, 9):
            assert sum(meander_moments(law, n, m) for m in range(n + 1)) == 1

    def test_pure_drift_meander(self):
        law = pure_drift_meander()
        assert meander_moments(law, 4, 0) == 1
        assert meander_moments(law, 4, 2) == 0


class TestStationaryPair:
    def test_qstar_is_polya_shifted(self):
        for a, t in [(F(1, 2), 1), (F(1, 3), F(2, 3))]:
            pair = two_param_stationary_pair(a, t)
            ref = polya_q(a, t - a)
            for n in range(1, 11):
                for r in range(1, n + 1):
                    assert pair.qstar(n, r) == ref(n, r)

    def test_rows_sum(self):
        pair = two_param_stationary_pair(F(1, 2), 1)
        for n in range(1, 11):
            assert sum(pair.q(n, r) for r in range(1, n + 1)) == 1
            assert sum(pair.qstar(n, r) for r in range(1, n + 1)) == 1

    def test_inconsistent_meander_rejected(self):
        spec = two_param_levy(F(1, 2), 1)
        wrong = beta_meander(F(1, 3), 1)  # meander from another family
        with pytest.raises(ValueError):
            stationary_pair(spec, wrong)

    @pytest.mark.parametrize("a, t", [(0.5, 1.0), (1 / 3, 2 / 3)])
    def test_float_rows_sum_to_one(self, a, t):
        # the closed form does not cancel: every float row up to n = 100 is
        # a law (the N check raises past 1e-9)
        pair = two_param_stationary_pair(a, t, N=100)
        for n in (32, 40, 100):
            assert min(pair.q.row(n)) >= 0 and min(pair.qstar.row(n)) >= 0

    @pytest.mark.parametrize("a, t", [(0.5, 1.0), (1 / 3, 2 / 3)])
    def test_float_qstar_rows_past_n170(self, a, t):
        # the meander moments are evaluated in log space, so rows past the
        # overflow of the rising factorials stay laws
        pair = two_param_stationary_pair(a, t)
        for n in (171, 300, 1000):
            row = pair.qstar.row(n)
            assert all(v >= 0 for v in row)  # also false for NaN
            assert abs(sum(row) - 1) <= 1e-9

    def test_float_meander_moments_refuse_float_overflow(self):
        # C(1030, 515) does not convert to a float
        law = beta_meander(0.5, 1.0)
        assert meander_moments(law, 1029, 514) > 0
        with pytest.raises(ValueError, match="overflows a float"):
            meander_moments(law, 1030, 515)
        with pytest.raises(ValueError, match="overflows a float"):
            two_param_stationary_pair(0.5, 1.0).qstar.row(1100)

    def test_float_spec_is_not_exact(self):
        assert not two_param_levy(1 / 3, 2 / 3).is_exact
        assert two_param_levy(F(1, 3), F(2, 3)).is_exact


class TestPotentials:
    def test_ewens_closed_form(self):
        spec = two_param_levy(0, F(3, 2))
        for j in range(1, 11):
            assert potential_from_levy(spec, j, exact=True) == \
                F(3, 2) / (j + F(3, 2) - 1)

    def test_two_param_closed_form(self):
        # g(j) = (theta)_{j-1} / (1-alpha+theta)_{j-1}
        a, t = F(1, 3), F(2, 3)
        spec = two_param_levy(a, t)
        for j in range(1, 11):
            assert potential_from_levy(spec, j, exact=True) == \
                rising(t, j - 1) / rising(1 - a + t, j - 1)

    def test_upchain_telescoping(self):
        # alpha = 1/2, theta = 0 limit checked via small theta is out of
        # scope; use (1/2, 1): f(j|i) rows must sum to 1
        # float mode: the tail of f(.|i) decays like 1/j^2, so truncating at
        # J leaves ~1/J mass
        spec = two_param_levy(F(1, 2), 1)
        q = two_param_q(0.5, 1.0)
        g = lambda j: potential_from_levy(spec, j, exact=False)
        for i in (1, 3):
            terms = [upchain_transition(q, g, i, j)
                     for j in range(i + 1, 4000)]
            assert all(x > 0 for x in terms)
            assert sum(terms) == pytest.approx(1.0, abs=2e-3)

    def test_upchain_exact_head_matches_float(self):
        pair = two_param_stationary_pair(F(1, 2), 1)
        spec = two_param_levy(F(1, 2), 1)
        ge = lambda j: potential_from_levy(spec, j, exact=True)
        qf = two_param_q(0.5, 1.0)
        gf = lambda j: potential_from_levy(spec, j, exact=False)
        for i in (1, 2):
            for j in range(i + 1, i + 8):
                exact = float(upchain_transition(pair.q, ge, i, j))
                approx = upchain_transition(qf, gf, i, j)
                assert approx == pytest.approx(exact, abs=1e-9)


class TestSibi:
    def test_sibi_normalizes(self):
        p = sibi_cpf(F(1, 2), F(1, 2))
        for n in range(1, 8):
            assert sum(p(c) for c in enumerate_compositions(n)) == 1

    def test_rec_sibi_recursion(self):
        from compstruct.composition import enumerate_partitions
        a, t = F(1, 2), F(1, 2)
        q = polya_q(a, t)
        for n in range(2, 8):
            for lam in enumerate_partitions(n):
                lhs = partition_law(a, t, lam)
                rhs = sum(q(n, r) * partition_law(a, t + a, lam.remove_part(r))
                          for r in set(lam.parts))
                assert lhs == rhs

    def test_symmetrization_matches_stationary_family(self):
        # the (a, t) partition law is the symmetrization of the stationary
        # (a, t + a) composition law
        from compstruct.composition import enumerate_partitions
        a, t = F(1, 2), F(1, 2)
        p = markov_cpf(two_param_stationary_pair(a, t + a))
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                mass = sum(p(c) for c in enumerate_compositions(n)
                           if c.rank() == lam)
                assert mass == partition_law(a, t, lam)

    def test_partition_law_float_mode(self):
        from compstruct.composition import enumerate_partitions
        lams = enumerate_partitions(9)
        for a, t in [(0.5, 0.5), (0.25, -0.125), (0.0, 2.0)]:
            vals = [partition_law(a, t, lam) for lam in lams]
            exact = [partition_law(F(a), F(t), lam) for lam in lams]
            assert vals == pytest.approx([float(x) for x in exact], rel=1e-12)
        # log space keeps large n finite
        assert partition_law(0.5, 1.0, Partition((200, 100))) > 0

    @pytest.mark.parametrize("a, t", [(1, 1), (F(-1, 4), 1), (F(1, 2), F(-1, 2)),
                                      (0, 0), (1.5, 1.0)])
    def test_partition_law_rejects_bad_parameters(self, a, t):
        with pytest.raises(ValueError):
            partition_law(a, t, Partition((2, 1)))

    def test_sibi_is_not_the_markov_arrangement(self):
        # same partition law, different order statistics: first divergence
        # at n = 4
        a = F(1, 2)
        sib = sibi_cpf(a, a)
        p = markov_cpf(two_param_stationary_pair(a, 1))
        assert sib(C((2, 1, 1))) == F(2, 35)
        assert p(C((2, 1, 1))) == F(8, 105)

    def test_strong_sampling_identity(self):
        # conditional last part is a multiplicity-weighted size-biased pick
        from compstruct.composition import enumerate_partitions
        a, t = F(1, 2), F(1, 2)
        p = markov_cpf(two_param_stationary_pair(a, t + a))
        for n in range(2, 7):
            for lam in enumerate_partitions(n):
                denom = partition_law(a, t, lam)
                for r in set(lam.parts):
                    mult = lam.parts.count(r)
                    num = sum(p(c) for c in enumerate_compositions(n)
                              if c.rank() == lam and c.last_part == r)
                    assert num / denom == F(r * mult, n)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]),
       st.sampled_from([F(1, 2), 1, 2]))
def test_stationary_normalization_property(alpha, theta):
    p = markov_cpf(two_param_stationary_pair(alpha, theta))
    for n in range(1, 6):
        assert sum(p(c) for c in enumerate_compositions(n)) == 1


@st.composite
def alpha_theta(draw, theta_positive=False):
    """Rational alpha in [0, 1) and theta > -alpha (theta > 0 if asked)."""
    a = draw(st.fractions(min_value=0, max_value=F(19, 20), max_denominator=20))
    lo = 0 if theta_positive else -a
    return a, lo + draw(st.fractions(min_value=F(1, 20), max_value=3, max_denominator=20))


@settings(max_examples=15, deadline=None)
@given(alpha_theta())
@example((F(1, 2), F(1, 2)))
@example((F(1, 3), F(2, 3)))
@example((0, 2))
@example((F(1, 4), F(-1, 8)))
def test_eppf_equals_sibi_permutation_sum_property(params):
    from compstruct.composition import enumerate_partitions
    a, t = params
    sib = sibi_cpf(a, t)
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            assert partition_law(a, t, lam) == \
                sum(sib(c) for c in lam.distinct_arrangements())


@settings(max_examples=10, deadline=None)
@given(alpha_theta(theta_positive=True))
def test_closed_form_pair_equals_levy_sum_property(params):
    a, t = params
    closed = two_param_stationary_pair(a, t)
    levy = stationary_pair(two_param_levy(a, t), beta_meander(a, t))
    for n in range(1, 11):
        for m in range(1, n + 1):
            assert closed.q(n, m) == levy.q(n, m)
            assert closed.qstar(n, m) == levy.qstar(n, m)
