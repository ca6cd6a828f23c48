"""Exact law families: Ewens, renewal, Markov product, Levy calculus."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from compstruct.composition import Composition, Partition, enumerate_compositions
from compstruct.laws import (Cpf, DecrementMatrixPair, LevySpec, beta_meander,
                             ewens_cpf, ewens_pair, levy_exponent,
                             markov_cpf, meander_moments,
                             partition_law, polya_q, potential_from_levy,
                             renewal_cpf, renewal_pair, sibi_cpf,
                             two_param_levy, two_param_q,
                             two_param_stationary_pair, upchain_transition)
from compstruct.ratmath import binom, factorial, rising, rising_ratio
from compstruct.stochastic import (RngStream, ScaleInvariantSet, batch_ewens_strings,
                                   batch_poisson_construction, batch_renewal_strings,
                                   batch_uniform_construction, codes_to_counts,
                                   sample_partition_batch)
from compstruct.structural import reconstruct_markov, structural_moments
from compstruct.verify import check_right_consistency
from levy_oracle import levy_binomial, levy_stationary_pair

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


def _ewens_product(theta, comp):
    """Oracle: p(lam) = theta^l n! / (theta)_n * prod 1/Lam_j."""
    val = F(theta) ** comp.num_parts * factorial(comp.n) / rising(F(theta), comp.n)
    for lam_j in comp.partial_sums():
        val /= lam_j
    return val


def _renewal_product(alpha, comp):
    """Oracle: p(lam) = lam_l alpha^(l-1) prod (1-alpha)_(lam_j-1) / lam_j!."""
    val = comp.last_part * alpha ** (comp.num_parts - 1)
    for part in comp.parts:
        val *= rising(1 - alpha, part - 1) / factorial(part)
    return val


class TestFamiliesArePairs:
    # Ewens(theta) is the regenerative pair q = q* = two_param_q(0, theta),
    # the reversed renewal(alpha) law the regenerative pair two_param_q(alpha,
    # 0), the forward one the stationary (alpha, alpha) pair
    @pytest.mark.parametrize("theta", [F(1, 2), 1, F(3, 2), 2])
    def test_ewens_pair_is_the_product_formula(self, theta):
        pair = ewens_pair(theta)
        assert pair.q is pair.qstar
        p = ewens_cpf(theta)
        assert p.name == "ewens"
        for n in range(1, 11):
            for c in enumerate_compositions(n):
                assert p(c) == _ewens_product(theta, c)

    @pytest.mark.parametrize("alpha", [F(1, 4), F(1, 3), F(1, 2), F(3, 4)])
    def test_renewal_pairs_are_the_product_formula(self, alpha):
        assert renewal_pair(alpha).label == f"stationary[two-param({alpha},{alpha})]"
        rev_pair = renewal_pair(alpha, reversed_=True)
        assert rev_pair.q is rev_pair.qstar
        fwd, rev = renewal_cpf(alpha), renewal_cpf(alpha, reversed_=True)
        assert (fwd.name, rev.name) == ("renewal", "renewal-reversed")
        for n in range(1, 11):
            for c in enumerate_compositions(n):
                want = _renewal_product(alpha, c)
                assert fwd(c) == want and rev(c.reverse()) == want

    @pytest.mark.parametrize("make", [ewens_cpf, renewal_cpf,
                                      lambda x: renewal_cpf(x, reversed_=True)],
                             ids=["ewens", "renewal", "renewal-reversed"])
    def test_float_values_within_1e12_of_exact(self, make):
        exact, approx = make(F(1, 2)), make(0.5)
        for n in range(1, 13):
            for c in enumerate_compositions(n):
                assert isinstance(approx(c), float)
                assert approx(c) == pytest.approx(float(exact(c)), rel=1e-12, abs=0)

    def test_family_names_the_cpf(self):
        # markov_cpf names a family's pair after the family; a pair built
        # without one, such as the q* := q control, keeps markov[label]
        for pair, name in ((ewens_pair(1), "ewens"), (renewal_pair(F(1, 2)), "renewal"),
                           (renewal_pair(F(1, 2), True), "renewal-reversed")):
            assert markov_cpf(pair).name == name
            control = DecrementMatrixPair(q=pair.q, qstar=pair.q, label="control")
            assert markov_cpf(control).name == "markov[control]"

    def test_parameter_errors(self):
        with pytest.raises(ValueError, match="theta must be positive, got -1"):
            ewens_pair(-1)
        for reversed_ in (False, True):
            with pytest.raises(ValueError, match=r"alpha must be in \(0,1\), got 1"):
                renewal_pair(1, reversed_)


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
        assert levy_exponent(spec, 1) == F(2, 3)
        assert levy_exponent(spec, 2) == F(16, 15)
        # ratio Phi(2)/Phi(1) is normalization-free
        assert levy_exponent(spec, 2) / levy_exponent(spec, 1) == F(8, 5)

    def test_exact_exponent_refuses_a_non_integer_s(self):
        for s in (2.5, F(5, 2), 2.0):
            with pytest.raises(ValueError, match="integer s, got s = "):
                levy_exponent(two_param_levy(F(1, 2), 1), s)
        # float data take any real s >= 0, and a drift any s
        assert levy_exponent(two_param_levy(0.5, 1.0), 2.5) > 0
        assert levy_exponent(LevySpec(drift=F(1, 2)), 2.5) == 1.25

    def test_exponent_quadrature_agrees(self):
        # oracle: the raw exponent s B(1-alpha, s+theta) over the raw
        # log-moment m = B(1-alpha, theta), both modes under m = 1
        from scipy.special import beta
        for a, t in [(F(1, 2), 1), (F(1, 3), F(2, 3))]:
            spec, fspec = two_param_levy(a, t), two_param_levy(float(a), float(t))
            for s in range(1, 8):
                oracle = s * beta(1 - float(a), s + float(t)) / beta(1 - float(a), float(t))
                assert float(levy_exponent(spec, s)) == pytest.approx(oracle, abs=1e-9)
                assert levy_exponent(fspec, s) == pytest.approx(oracle, abs=1e-9)

    def test_decrement_entries_float_vs_exact(self):
        # q(n:m) is a ratio, so both arithmetic modes must agree directly
        for a, t in [(F(1, 2), 1), (F(1, 3), F(2, 3))]:
            spec, fspec = two_param_levy(a, t), two_param_levy(float(a), float(t))
            for n in range(1, 11):
                phi_n = levy_exponent(fspec, n)
                for r in range(1, n + 1):
                    fl = levy_binomial(fspec, n, r) / phi_n
                    ex = float(levy_binomial(spec, n, r)
                               / levy_exponent(spec, n))
                    assert fl == pytest.approx(ex, abs=1e-9)

    def test_ewens_exponent(self):
        # alpha = 0: Phi(n) = n theta / (n + theta), so q(n:.) telescopes
        spec = two_param_levy(0, 2)
        for n in range(1, 8):
            assert levy_exponent(spec, n) == F(2 * n, n + 2)

    def test_binomial_rows_sum(self):
        spec = two_param_levy(F(1, 2), 1)
        for n in range(1, 9):
            total = sum(levy_binomial(spec, n, m)
                        for m in range(1, n + 1))
            assert total == levy_exponent(spec, n)

    def test_qPhi_equals_qnu1(self):
        # decrement entries from the Levy exponent match the closed form
        for a, t in [(F(1, 2), 1), (F(1, 3), F(2, 3))]:
            spec = two_param_levy(a, t)
            closed = two_param_q(a, t)
            for n in range(1, 11):
                phi_n = levy_exponent(spec, n)
                for r in range(1, n + 1):
                    assert levy_binomial(spec, n, r) / phi_n \
                        == closed(n, r)

    def test_pure_drift(self):
        spec = LevySpec(drift=1, alpha=None, theta=None,
                        label="drift")
        assert levy_exponent(spec, 5) == 5
        assert levy_binomial(spec, 5, 1) == 5
        assert levy_binomial(spec, 5, 2) == 0


class TestMeander:
    def test_beta_meander_moments(self):
        law = beta_meander(F(1, 2), 1)
        # Psi(1:1) = E A_1 = (1-a)/(1-a+t) = 1/3
        assert meander_moments(law, 1, 1) == F(1, 3)
        for n in range(1, 9):
            assert sum(meander_moments(law, n, m) for m in range(n + 1)) == 1


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

    @pytest.mark.parametrize("a, t", [(0.5, 1.0), (1 / 3, 2 / 3)])
    def test_float_rows_sum_to_one(self, a, t):
        # the closed form does not cancel: every float row up to n = 100 is
        # a law (float_row raises past 1e-9)
        pair = two_param_stationary_pair(a, t)
        for n in range(1, 101):
            pair.q.float_row(n)
            pair.qstar.float_row(n)
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


class TestPotentials:
    def test_ewens_closed_form(self):
        spec = two_param_levy(0, F(3, 2))
        for j in range(1, 11):
            assert potential_from_levy(spec, j) == \
                F(3, 2) / (j + F(3, 2) - 1)

    def test_two_param_closed_form(self):
        # g(j) = (theta)_{j-1} / (1-alpha+theta)_{j-1}
        a, t = F(1, 3), F(2, 3)
        spec = two_param_levy(a, t)
        for j in range(1, 11):
            assert potential_from_levy(spec, j) == \
                rising(t, j - 1) / rising(1 - a + t, j - 1)

    def test_rational_spec_gives_exact_potential(self):
        # the mode follows the inputs: rational Levy data, exact values
        spec = two_param_levy(F(1, 2), 1)
        for j in (1, 2, 5):
            assert type(potential_from_levy(spec, j)) is F
        assert type(potential_from_levy(two_param_levy(0.5, 1.0), 5)) is float

    def test_upchain_telescoping(self):
        # alpha = 1/2, theta = 0 limit checked via small theta is out of
        # scope; use (1/2, 1): f(j|i) rows must sum to 1
        # float mode: the tail of f(.|i) decays like 1/j^2, so truncating at
        # J leaves ~1/J mass
        spec = two_param_levy(0.5, 1.0)
        q = two_param_q(0.5, 1.0)
        g = lambda j: potential_from_levy(spec, j)
        for i in (1, 3):
            terms = [upchain_transition(q, g, i, j)
                     for j in range(i + 1, 4000)]
            assert all(x > 0 for x in terms)
            assert sum(terms) == pytest.approx(1.0, abs=2e-3)

    def test_upchain_exact_head_matches_float(self):
        pair = two_param_stationary_pair(F(1, 2), 1)
        spec = two_param_levy(F(1, 2), 1)
        ge = lambda j: potential_from_levy(spec, j)
        qf = two_param_q(0.5, 1.0)
        gf = lambda j: potential_from_levy(two_param_levy(0.5, 1.0), j)
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
        lams = [lam for n in range(1, 13) for lam in enumerate_partitions(n)]
        for a, t in [(0.5, 0.5), (0.25, -0.125), (0.0, 2.0)]:
            vals = [partition_law(a, t, lam) for lam in lams]
            exact = [partition_law(F(a), F(t), lam) for lam in lams]
            assert vals == pytest.approx([float(x) for x in exact], rel=1e-12)
        # log space keeps large n finite
        big = Partition((200, 100))
        assert partition_law(0.5, 1.0, big) == pytest.approx(
            float(partition_law(F(1, 2), 1, big)), rel=1e-9)

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
    levy = levy_stationary_pair(two_param_levy(a, t))
    for n in range(1, 11):
        for m in range(1, n + 1):
            assert closed.q(n, m) == levy.q(n, m)
            assert closed.qstar(n, m) == levy.qstar(n, m)


# ---------------------------------------------------------------------------
# memoised evaluation: per-instance CPF values, prefix-shared Markov products


def _left_fold(pair, comp):
    """p(lam) = q*(n:lam_l) prod_{k<l} q(Lam_k:lam_k), multiplied left to right."""
    val = pair.qstar(comp.n, comp.last_part)
    sums = comp.partial_sums()
    for k in range(comp.num_parts - 1):
        val = val * pair.q(sums[k], comp.parts[k])
    return val


@settings(max_examples=10, deadline=None)
@given(alpha_theta(theta_positive=True), st.randoms(use_true_random=False))
@example((F(1, 2), 1), random.Random(0))
def test_memoised_markov_cpf_equals_left_fold_property(params, rnd):
    a, t = params
    pair = two_param_stationary_pair(a, t)
    control = DecrementMatrixPair(q=pair.q, qstar=pair.q, label="control")
    rebuilt, rebuilt_cpf = reconstruct_markov(structural_moments(markov_cpf(pair), 9))
    comps = [c for n in range(1, 9) for c in enumerate_compositions(n)]
    for dm, p in ((pair, markov_cpf(pair)), (control, markov_cpf(control)),
                  (rebuilt, rebuilt_cpf)):
        # any call order must give the left fold, bit for bit
        rnd.shuffle(comps)
        for c in comps:
            got, want = p(c), _left_fold(dm, c)
            assert type(got) is type(want) and got == want, (dm.label, c)
        # a second pass reads the memo
        assert all(p(c) == _left_fold(dm, c) for c in comps[:20])


class TestMemo:
    def test_same_label_different_entries(self):
        # caches live on the objects, never under a name or label
        c = C((2, 1))
        pairs = [two_param_stationary_pair(a, t) for a, t in ((F(1, 2), 1), (F(1, 3), F(2, 3)))]
        pairs = [DecrementMatrixPair(q=p.q, qstar=p.q, label="control") for p in pairs]
        cpfs = [markov_cpf(p) for p in pairs]
        assert cpfs[0].name == cpfs[1].name
        assert cpfs[0](c) != cpfs[1](c)
        assert [p(c) for p in cpfs] == [_left_fold(dm, c) for dm in pairs]

    def test_control_still_fails_right_consistency(self):
        pair = two_param_stationary_pair(F(1, 3), F(2, 3))
        control = markov_cpf(DecrementMatrixPair(q=pair.q, qstar=pair.q, label="control"))
        assert not check_right_consistency(control, 6).passed
        assert check_right_consistency(markov_cpf(pair), 6).passed

    def test_evaluate_runs_once_per_composition(self):
        calls = []
        base = ewens_cpf(F(1, 2))
        p = Cpf(name="counted", evaluate=lambda c: calls.append(c) or base(c))
        for _ in range(3):
            assert [v for _, v in p.table(5)] == [base(c) for c in enumerate_compositions(5)]
        assert len(calls) == 16


def _naive_rising(x, k):
    out = x ** 0
    for i in range(k):
        out = out * (x + i)
    return out


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(-20, 20),
                 st.fractions(min_value=-20, max_value=20, max_denominator=50),
                 st.floats(min_value=-20, max_value=20)),
       st.integers(0, 25))
@example(F(1, 2), 0)
@example(3, 0)
@example(0.5, 0)
def test_rising_equals_naive_product_property(x, k):
    got = rising(x, k)
    assert type(got) is type(x)
    assert got == _naive_rising(x, k)


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("call", [
    pytest.param(lambda: ewens_pair(INF), id="ewens_pair-inf"),
    pytest.param(lambda: ewens_pair(NAN), id="ewens_pair-nan"),
    pytest.param(lambda: renewal_pair(NAN), id="renewal_pair-nan"),
    pytest.param(lambda: two_param_q(0.5, INF), id="two_param_q-inf"),
    pytest.param(lambda: polya_q(0.5, INF), id="polya_q-inf"),
    pytest.param(lambda: polya_q(NAN, 1.0), id="polya_q-nan"),
    pytest.param(lambda: two_param_stationary_pair(0.5, INF), id="stationary_pair-inf"),
    pytest.param(lambda: two_param_levy(0.5, INF), id="two_param_levy-inf"),
    pytest.param(lambda: LevySpec(drift=1, alpha=F(1, 2), theta=1), id="levy-drift-and-tail"),
    pytest.param(lambda: sample_partition_batch(0.5, 1.0, 0, 10, RngStream(1)),
                 id="sample_partition_batch-n=0"),
    pytest.param(lambda: codes_to_counts([1], 0), id="codes_to_counts-n=0"),
    pytest.param(lambda: codes_to_counts([1], 64), id="codes_to_counts-n=64"),
    # only constructed: with theta = inf, gap() would never return
    *(pytest.param(lambda bad=bad: ScaleInvariantSet(bad, RngStream(1)),
                   id=f"ScaleInvariantSet-{bad}") for bad in (INF, NAN)),
    *(pytest.param(lambda batch=batch, bad=bad: batch(bad, 5, 10, RngStream(1)),
                   id=f"{batch.__name__}-{bad}")
      for batch in (batch_ewens_strings, batch_renewal_strings,
                    batch_uniform_construction, batch_poisson_construction)
      for bad in (INF, NAN)),
])
def test_entry_points_reject_bad_parameters(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("n", [171, 400])
def test_float_polya_and_sibi_past_float_range_of_rising(n):
    # (2)_{n-1} = n! overflows a float at n = 171; the log-space rows are
    # laws (float_row raises otherwise), for every shift sibi_cpf reads
    for shift in (0, 1, 5):
        assert polya_q(0.5, 1.0 + shift * 0.5).float_row(n).min() > 0
    exact, fl = sibi_cpf(F(1, 2), 1), sibi_cpf(0.5, 1.0)
    for parts in ((n,), (1, n - 1), (n - 1, 1), (n // 2, n - n // 2)):
        assert fl(C(parts)) == pytest.approx(float(exact(C(parts))), rel=1e-9)


_positive = st.fractions(min_value=F(1, 20), max_value=20, max_denominator=20)
_pairs = st.lists(st.tuples(_positive, st.integers(0, 30)), max_size=3)


@settings(max_examples=60, deadline=None)
@given(_pairs.filter(bool), _pairs, st.integers(1, 2 ** 60))
@example([(F(1, 2), 3)], [(F(2), 3)], 1)
@example([(F(1, 2), 0)], [], 7)
def test_rising_ratio_modes_agree_property(num, den, coef):
    exact = rising_ratio(tuple(num), tuple(den), coef)
    fl = rising_ratio(tuple((float(x), k) for x, k in num),
                      tuple((float(y), l) for y, l in den), coef)
    assert type(exact) is F and type(fl) is float
    want = coef * math.prod(rising(x, k) for x, k in num) / math.prod(
        rising(y, l) for y, l in den)
    assert exact == want
    assert fl == pytest.approx(float(exact), rel=1e-11)


def test_rising_ratio_refuses_nonpositive_float_arguments():
    with pytest.raises(ValueError):
        rising_ratio(((-0.5, 2),), ())
    assert rising_ratio(((-0.5, 0),), ((1.0, 1),)) == 1.0
