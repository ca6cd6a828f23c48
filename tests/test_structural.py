"""Structural moments, block counts, deletion law and reconstruction."""

import math
from fractions import Fraction as F

import pytest

from compstruct.composition import Composition, enumerate_compositions
from compstruct.laws import (beta_meander, ewens_cpf, markov_cpf, renewal_cpf,
                             two_param_levy, two_param_stationary_pair,
                             potential_from_levy)
from compstruct.ratmath import FLOAT_TOL
from compstruct.structural import (ReconstructionError, StructuralMoments,
                                   block_count_row, deletion_law,
                                   expected_num_parts, last_part_law,
                                   potential_from_cpf, reconstruct_markov,
                                   size_biased_part_law,
                                   structural_moments)

C = Composition

FAMILIES = {
    "ewens(1)": ewens_cpf(1),
    "renewal(1/2)": renewal_cpf(F(1, 2)),
    "stationary(1/2,1)": markov_cpf(two_param_stationary_pair(F(1, 2), 1)),
}


class TestStructuralMoments:
    def test_one_part_values(self):
        mom = structural_moments(ewens_cpf(1), 8)
        for n in range(1, 9):
            assert mom(n) == F(1, n)

    def test_ewens_general_theta(self):
        theta = F(3, 2)
        mom = structural_moments(ewens_cpf(theta), 8)
        p = ewens_cpf(theta)
        for n in range(1, 9):
            assert mom(n) == p(C((n,)))

    def test_renewal_values(self):
        mom = structural_moments(renewal_cpf(F(1, 2)), 4)
        assert mom(2) == F(1, 2)
        assert mom(3) == F(3, 8)

    def test_p1_is_one(self):
        for cpf in FAMILIES.values():
            assert structural_moments(cpf, 3)(1) == 1

    def test_invalid_first_moment(self):
        with pytest.raises(ValueError):
            StructuralMoments((F(1, 2), F(1, 2)))

    def test_float_first_moment_within_tolerance(self):
        # a float p(1) may be off 1 by rounding; an exact one may not
        assert StructuralMoments((1 - 9e-16, 0.5)).max_n == 2
        for p1 in (1 - 1e-6, float("nan"), F(10 ** 12 - 1, 10 ** 12)):
            with pytest.raises(ValueError):
                StructuralMoments((p1, 0.5))

    def test_read_out_of_range(self):
        mom = StructuralMoments((F(1), F(1, 2)))
        for n in (0, 3):
            with pytest.raises(ValueError, match=rf"p\({n}\) not available \(have 1..2\)"):
                mom(n)


class TestBlockCounts:
    def test_rows_are_expected_counts(self):
        # mu_{n,r} = E[#size-r parts]: nonnegative, and sum_r mu_{n,r} is the
        # expected number of parts
        for cpf in FAMILIES.values():
            mom = structural_moments(cpf, 9)
            for n in range(1, 9):
                row = block_count_row(mom, n)
                assert all(v >= 0 for v in row)
                assert sum(row) == expected_num_parts(mom, n)

    def test_size_biased_law_normalizes(self):
        # sum_r r mu_{n,r} = n, i.e. the size-biased part law is a law
        for cpf in FAMILIES.values():
            mom = structural_moments(cpf, 9)
            for n in range(1, 9):
                row = block_count_row(mom, n)
                assert sum((r + 1) * v for r, v in enumerate(row)) == n
                assert sum(size_biased_part_law(mom, n)) == 1

    def test_block_counts_vs_enumeration(self):
        # mu_{n,r} = E[#size-r parts], checked against full enumeration
        for cpf in FAMILIES.values():
            mom = structural_moments(cpf, 8)
            for n in range(2, 8):
                row = block_count_row(mom, n)
                for r in range(1, n + 1):
                    direct = sum(cpf(c) * c.parts.count(r)
                                 for c in enumerate_compositions(n))
                    assert row[r - 1] == direct

    def test_expected_num_parts(self):
        # Ewens(1): E K_n = harmonic number H_n
        mom = structural_moments(ewens_cpf(1), 8)
        for n in range(1, 9):
            assert expected_num_parts(mom, n) == sum(F(1, j) for j in range(1, n + 1))

    @pytest.mark.parametrize("read", [block_count_row, potential_from_cpf, size_biased_part_law])
    def test_past_max_n_refused(self, read):
        for mom in (StructuralMoments((F(1), F(1, 2))), StructuralMoments((1.0, 0.5))):
            with pytest.raises(ValueError, match=r"need moments up to p\(3\)"):
                read(mom, 3)


class TestDeletionLaw:
    def test_matches_size_biased(self):
        # Lemma: omega_{n,r} agrees with the size-biased law r mu_{n,r}/n
        for cpf in FAMILIES.values():
            mom = structural_moments(cpf, 9)
            for n in range(2, 9):
                row_n = block_count_row(mom, n)
                row_prev = block_count_row(mom, n - 1)
                omega = deletion_law(row_n, row_prev)
                sized = size_biased_part_law(mom, n)
                assert omega == tuple(sized) or list(omega) == list(sized)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            deletion_law((F(1, 2), F(1, 2)), (F(2, 1),))

    def test_rows_of_wrong_lengths_rejected(self):
        for prev in ((), (F(1, 2), F(1, 2))):
            with pytest.raises(ValueError, match="rows must be for n and n-1"):
                deletion_law((F(1, 2), F(1, 2)), prev)


class TestTheoremSL:
    def test_last_part_equals_size_biased(self):
        for cpf in FAMILIES.values():
            mom = structural_moments(cpf, 9)
            for n in range(1, 9):
                assert last_part_law(cpf, n) == size_biased_part_law(mom, n)

    def test_documented_values(self):
        p = ewens_cpf(1)
        assert last_part_law(p, 2) == [F(1, 2), F(1, 2)]
        rn = renewal_cpf(F(1, 2))
        assert last_part_law(rn, 3)[0] == rn(C((2, 1))) + rn(C((1, 1, 1)))
        assert last_part_law(rn, 3)[0] == F(3, 8)


class TestPotentialFromCpf:
    def test_triple_agreement(self):
        a, t = F(1, 2), 1
        cpf = markov_cpf(two_param_stationary_pair(a, t))
        mom = structural_moments(cpf, 11)
        spec = two_param_levy(a, t)
        for j in range(1, 11):
            exact = potential_from_cpf(mom, j)
            levy = potential_from_levy(spec, j)
            fl = potential_from_levy(two_param_levy(float(a), float(t)), j)
            assert exact == levy
            assert fl == pytest.approx(float(exact), abs=1e-8)

    def test_ewens_closed_form(self):
        theta = 2
        mom = structural_moments(ewens_cpf(theta), 11)
        for j in range(1, 11):
            assert potential_from_cpf(mom, j) == F(theta, j + theta - 1)

    def test_stable_closed_form(self):
        # (alpha, alpha): g(j) = (alpha)_{j-1}/(j-1)!
        from compstruct.ratmath import rising
        import math

        a = F(1, 2)
        cpf = markov_cpf(two_param_stationary_pair(a, a))
        mom = structural_moments(cpf, 11)
        for j in range(1, 11):
            assert potential_from_cpf(mom, j) == rising(a, j - 1) / math.factorial(j - 1)


class TestReconstruction:
    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_roundtrip(self, name):
        cpf = FAMILIES[name]
        mom = structural_moments(cpf, 9)
        pair, rebuilt = reconstruct_markov(mom)
        for n in range(1, 9):
            for c in enumerate_compositions(n):
                assert rebuilt(c) == cpf(c)

    def test_reconstructed_matrices_match(self):
        pair0 = two_param_stationary_pair(F(1, 2), 1)
        mom = structural_moments(markov_cpf(pair0), 9)
        pair, rebuilt = reconstruct_markov(mom)
        for n in range(1, 8):
            for r in range(1, n + 1):
                assert pair.q(n, r) == pair0.q(n, r)
        for n in range(1, 9):
            for r in range(1, n + 1):
                assert pair.qstar(n, r) == pair0.qstar(n, r)
        # the CPF reaches as far as its rows: q* row 9 and q rows <= 8 give
        # n = 9, and q* row 10 is missing
        assert all(rebuilt(c) == markov_cpf(pair0)(c) for c in enumerate_compositions(9))
        with pytest.raises(ValueError, match=r"q\* only covers n <= 9"):
            rebuilt(C((9, 1)))

    def test_degenerate_one_block(self):
        # p(n) = 1 for all n: the pure-drift one-block composition
        mom = StructuralMoments(tuple(F(1) for _ in range(8)))
        pair, cpf = reconstruct_markov(mom)
        for n in range(1, 8):
            assert cpf(C((n,))) == 1
            assert pair.qstar(n, n) == 1

    def test_infeasible_moments(self):
        # valid moment head whose q*(3:1) vanishes: reconstruction cannot
        # divide by the singleton mass
        mom = StructuralMoments((F(1), F(9, 10), F(8, 10)))
        with pytest.raises(ReconstructionError):
            reconstruct_markov(mom)

    def test_non_law_row_refused(self):
        # the q solve goes through, but it rebuilds q row 2 as [15/7, -8/7]
        mom = StructuralMoments((F(1), F(9, 10), F(1, 10)))
        with pytest.raises(ReconstructionError,
                           match=r"row 2 is not a probability vector: "
                                 r"\[Fraction\(15, 7\), Fraction\(-8, 7\)\]"):
            reconstruct_markov(mom)

    def test_needs_two_moments(self):
        with pytest.raises(ValueError, match=r"need at least p\(1..2\)"):
            reconstruct_markov(StructuralMoments((F(1),)))


def structural_density_check(density, grid=10 ** 4):
    """Oracle for the structural-law shape: (1-x) phi(x) nonincreasing on a
    midpoint grid, and phi of mass 1 by quadrature.  Returns (passed, mass)."""
    from scipy.integrate import quad

    vals = [(1.0 - x) * density(x) for x in ((k + 0.5) / grid for k in range(grid))]
    worst = max(0.0, max(b - a for a, b in zip(vals, vals[1:])))
    monotone = worst <= FLOAT_TOL * max(1.0, max(vals))
    mass, _ = quad(density, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    return monotone and abs(mass - 1.0) < FLOAT_TOL, mass


def beta_density(a, b):
    """Density of Beta(a, b) on (0, 1)."""
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    return lambda x: math.exp(log_norm) * x ** (a - 1) * (1 - x) ** (b - 1)


class TestDensityCheck:
    def test_beta_structural_density_passes(self):
        # the Beta(1-alpha, theta) meander of the stationary pair: its density
        # has the moments of beta_meander and passes the shape check
        from scipy.integrate import quad

        law = beta_meander(F(1, 2), 1)
        density = beta_density(0.5, 1.0)
        passed, mass = structural_density_check(density)
        assert passed
        assert mass == pytest.approx(1.0, abs=1e-6)
        for a, b in [(1, 0), (0, 1), (2, 3)]:
            m, _ = quad(lambda x: x ** a * (1 - x) ** b * density(x), 0.0, 1.0,
                        epsabs=1e-12, epsrel=1e-12, limit=200)
            assert m == pytest.approx(float(law.moment(a, b)), abs=1e-9)

    def test_increasing_density_fails(self):
        # phi(x) = 2x makes (1-x) phi(x) non-monotone on (0,1)
        passed, _ = structural_density_check(lambda x: 2.0 * x)
        assert not passed
