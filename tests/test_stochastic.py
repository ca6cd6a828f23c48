"""Samplers: laws, determinism, set constructions, fragmentation, arrangement."""

from fractions import Fraction as F

import numpy as np
import pytest
from scipy.stats import kstest

from compstruct.composition import (Composition, Partition,
                                    enumerate_compositions,
                                    enumerate_partitions)
from compstruct.laws import (Cpf, DecrementMatrix, DecrementMatrixPair,
                             ewens_cpf, ewens_pair, fragment_cpf, markov_cpf,
                             partition_law,
                             renewal_cpf, renewal_pair, sibi_cpf, two_param_levy,
                             potential_from_levy, two_param_q,
                             two_param_stationary_pair)
from compstruct.stochastic import (RngStream, ScaleInvariantSet,
                                   batch_arrangements, batch_ewens_strings,
                                   batch_markov_compositions,
                                   batch_poisson_construction,
                                   batch_renewal_strings,
                                   batch_uniform_construction,
                                   codes_to_counts,
                                   poisson_sampling_composition,
                                   sample_partition_batch,
                                   uniform_sampling_composition)
from compstruct.stochastic import (_bits_to_codes, _ewens_hazard, _markov_hazard,
                                   _renewal_hazard)
from compstruct.structural import (expected_num_parts, reconstruct_markov,
                                   structural_moments)
from compstruct.verify import chi_square_gof

C = Composition
P_GATE = 1e-3
DRAWS = 30000


def gof_pvalue(codes, cpf, n):
    counts = codes_to_counts(codes, n)
    return chi_square_gof(counts, cpf.float_probs(n))[1]


class TestRngStream:
    def test_determinism(self):
        a = RngStream(seed=5).generator().random(10)
        b = RngStream(seed=5).generator().random(10)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(seed=5, stream=0).generator().random(10)
        b = RngStream(seed=5, stream=1).generator().random(10)
        assert not np.array_equal(a, b)

    def test_kernel_seed_stable(self):
        s = RngStream(seed=9, stream=2)
        assert s.kernel_seed() == s.kernel_seed()
        assert s.kernel_seed(salt=1) != s.kernel_seed()


class TestStringSamplers:
    def test_ewens_law(self):
        codes = batch_ewens_strings(1.0, 5, DRAWS, RngStream(1))
        assert gof_pvalue(codes, ewens_cpf(1), 5) > P_GATE

    def test_renewal_law(self):
        codes = batch_renewal_strings(0.5, 5, DRAWS, RngStream(2))
        assert gof_pvalue(codes, renewal_cpf(F(1, 2)), 5) > P_GATE

    def test_markov_law(self):
        pair = two_param_stationary_pair(F(1, 2), 1)
        codes = batch_markov_compositions(pair, 5, DRAWS, RngStream(3))
        assert gof_pvalue(codes, markov_cpf(pair), 5) > P_GATE

    def test_batch_determinism(self):
        a = batch_ewens_strings(1.0, 6, 500, RngStream(11))
        b = batch_ewens_strings(1.0, 6, 500, RngStream(11))
        assert np.array_equal(a, b)

    def test_n1_always_single(self):
        codes = batch_ewens_strings(2.0, 1, 100, RngStream(1))
        assert (codes == 1).all()

    @pytest.mark.parametrize("sample", [
        lambda n, d: batch_ewens_strings(-1.0, n, d, RngStream(1)),
        lambda n, d: batch_ewens_strings(0, n, d, RngStream(1)),
        lambda n, d: batch_renewal_strings(1.5, n, d, RngStream(1)),
        lambda n, d: batch_renewal_strings(0, n, d, RngStream(1)),
        lambda n, d: batch_uniform_construction(-1.0, n, d, RngStream(1)),
        lambda n, d: batch_poisson_construction(0.0, n, d, RngStream(1)),
        lambda n, d: batch_ewens_strings(1.0, n, -1, RngStream(1)),
        lambda n, d: batch_markov_compositions(
            two_param_stationary_pair(F(1, 2), 1), n, -1, RngStream(1)),
    ], ids=["ewens-theta<0", "ewens-theta=0", "renewal-alpha>1", "renewal-alpha=0",
            "uniform-set-theta<0", "poisson-set-theta=0", "ewens-draws<0",
            "markov-draws<0"])
    def test_batch_rejects_bad_parameters(self, sample):
        with pytest.raises(ValueError):
            sample(5, 10)

    @pytest.mark.parametrize("sample", [
        lambda n: batch_ewens_strings(1.0, n, 10, RngStream(1)),
        lambda n: batch_renewal_strings(0.5, n, 10, RngStream(1)),
        lambda n: batch_markov_compositions(
            two_param_stationary_pair(F(1, 2), 1), n, 10, RngStream(1)),
        lambda n: batch_uniform_construction(1.0, n, 10, RngStream(1)),
        lambda n: batch_poisson_construction(1.0, n, 10, RngStream(1)),
        lambda n: batch_arrangements(np.full((10, 1), n), n, 0.5, 0.5, RngStream(1)),
    ], ids=["ewens", "renewal", "markov", "uniform-set", "poisson-set", "arrangement"])
    def test_int64_code_guard(self, sample):
        # codes of compositions of 64 would overflow int64
        for n in (0, 64, 70):
            with pytest.raises(ValueError, match="int64"):
                sample(n)

    @pytest.mark.parametrize("row3", [[float("nan"), 0.5, 0.5], [-0.25, 0.75, 0.5],
                                      [1 / 3, 1 / 3, 1 / 3 + 1e-6]],
                             ids=["nan", "negative", "off-by-1e-6"])
    def test_batch_markov_rejects_rows_that_are_not_laws(self, row3):
        q = DecrementMatrix("q", lambda n, r: row3[r - 1] if n == 3 else 1.0 / n)
        pair = DecrementMatrixPair(q=q, qstar=q)
        with pytest.raises(ValueError, match="row 3"):
            batch_markov_compositions(pair, 5, 100, RngStream(1))
        # no draw at n = 2 can reach row 3
        assert batch_markov_compositions(pair, 2, 100, RngStream(1)).shape == (100,)

    def test_markov_rows_are_checked_once_per_matrix(self):
        pair = two_param_stationary_pair(F(1, 2), 1)
        first = batch_markov_compositions(pair, 6, 500, RngStream(2))
        row = pair.q.float_row(3)
        assert row is pair.q.float_row(3) and not row.flags.writeable
        assert row.tolist() == [float(v) for v in pair.q.row(3)]
        for _ in range(3):
            batch_markov_compositions(pair, 6, 1, RngStream(3))
        # cached rows draw the same stream as a fresh matrix
        assert np.array_equal(batch_markov_compositions(pair, 6, 500, RngStream(2)), first)
        fresh = two_param_stationary_pair(F(1, 2), 1)
        assert np.array_equal(batch_markov_compositions(fresh, 6, 500, RngStream(2)), first)

    def test_float_markov_at_n40(self):
        # the float stationary rows at n = 40 pass the row check
        codes = batch_markov_compositions(two_param_stationary_pair(0.5, 1.0), 40,
                                          20000, RngStream(5))
        assert ((codes >= 1 << 39) & (codes < 1 << 40)).all()

    def test_n63_codes_are_positive(self):
        codes = batch_ewens_strings(1.0, 63, 100, RngStream(1))
        assert (codes >= 1 << 62).all()

    def test_bits_to_codes_matches_binary_codes(self):
        rng = np.random.default_rng(3)
        for n in range(1, 64):
            bits = rng.random((20, n)) < 0.5
            bits[:, 0] = True
            want = [Composition.from_binary("".join("1" if b else "0" for b in row)).code
                    for row in bits]
            codes = _bits_to_codes(bits)
            assert codes.dtype == np.int64 and codes.tolist() == want
        assert (codes > 0).all()

    def test_zero_draws(self):
        assert batch_ewens_strings(1.0, 5, 0, RngStream(1)).shape == (0,)
        assert batch_arrangements(np.zeros((0, 3)), 5, 0.5, 0.5, RngStream(1)).shape == (0,)


class TestGrowthKernel:
    # the three string laws share one right-growth kernel; the float
    # stationary (1/2, 1) pair is built once
    FLOAT_PAIR = two_param_stationary_pair(0.5, 1.0)
    LAWS = {
        "ewens": (lambda n, d, s: batch_ewens_strings(1.0, n, d, s), ewens_cpf(1)),
        "renewal": (lambda n, d, s: batch_renewal_strings(0.5, n, d, s),
                    renewal_cpf(F(1, 2))),
        "markov": (lambda n, d, s: batch_markov_compositions(
            TestGrowthKernel.FLOAT_PAIR, n, d, s),
            markov_cpf(two_param_stationary_pair(F(1, 2), 1))),
    }

    @pytest.mark.parametrize("law", LAWS)
    def test_draws_are_prefix_consistent(self, law):
        # the first m digits of a draw at n are the draw at m from the same
        # stream: one sample of the whole sequence C_1, ..., C_n
        sample, _ = self.LAWS[law]
        n = 32
        full = sample(n, 2000, RngStream(51))
        for m in range(1, n + 1):
            assert np.array_equal(full >> (n - m), sample(m, 2000, RngStream(51)))

    @pytest.mark.parametrize("law", LAWS)
    def test_mean_part_count_at_n63(self, law):
        sample, cpf = self.LAWS[law]
        n, draws = 63, 100_000
        parts = np.bitwise_count(sample(n, draws, RngStream(52))).astype(float)
        exact = float(expected_num_parts(structural_moments(cpf, n), n))
        se = parts.std() / draws ** 0.5
        assert abs(parts.mean() - exact) < 5 * se

    @pytest.mark.parametrize("closed, pair", [
        *((_ewens_hazard(t), ewens_pair(t)) for t in (F(1, 2), 1, F(3, 2), 2)),
        *((_renewal_hazard(a), renewal_pair(a)) for a in (F(1, 4), F(1, 2), F(3, 4)))])
    def test_closed_form_hazards_are_the_pair_hazards(self, closed, pair):
        # theta/(m+theta) and alpha/r are the hazard of the Ewens and forward
        # renewal pairs on every reachable entry r <= m
        for n in (2, 9, 32):
            reach = np.tril(np.ones((n - 1, n - 1), dtype=bool))
            want = _markov_hazard(pair)(n)[reach]
            got = np.broadcast_to(closed(n), (n - 1, n - 1))[reach]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_markov_refuses_a_pair_that_is_not_right_consistent(self):
        # the regenerative control q* := q has laws for rows but breaks
        # q*(m+1:1) q(m:r) + q*(m+1:r+1) = q*(m:r)
        q = two_param_q(F(1, 2), 1)
        control = DecrementMatrixPair(q=q, qstar=q)
        with pytest.raises(ValueError, match="not right-consistent"):
            batch_markov_compositions(control, 8, 100, RngStream(1))


class TestScaleInvariantConstructions:
    def test_meander_is_beta_1_theta(self):
        rng = RngStream(21).generator()
        theta = 2.0
        lengths = np.array([1.0 - ScaleInvariantSet(theta, rng).gap(1.0)[0]
                            for _ in range(20000)])
        # A ~ Beta(1, theta): cdf 1 - (1-x)^theta
        stat, p = kstest(lengths, lambda x: 1 - (1 - x) ** theta)
        assert p > P_GATE

    def test_uniform_sampling_law(self):
        codes = batch_uniform_construction(1.0, 5, DRAWS, RngStream(22))
        assert gof_pvalue(codes, ewens_cpf(1), 5) > P_GATE

    def test_poisson_sampling_law(self):
        codes = batch_poisson_construction(1.0, 5, DRAWS, RngStream(23))
        assert gof_pvalue(codes, ewens_cpf(1), 5) > P_GATE

    def test_op_level_constructions(self):
        # the per-draw object constructions agree with the Ewens law too
        rng = RngStream(24).generator()
        idx = {c.code: i for i, c in enumerate(enumerate_compositions(4))}
        cu = np.zeros(8)
        cp = np.zeros(8)
        for _ in range(8000):
            sset = ScaleInvariantSet(1.0, rng)
            cu[idx[uniform_sampling_composition(sset, 4, rng).code]] += 1
            sset = ScaleInvariantSet(1.0, rng)
            cp[idx[poisson_sampling_composition(sset, 4, rng).code]] += 1
        probs = ewens_cpf(1).float_probs(4)
        assert chi_square_gof(cu, probs)[1] > P_GATE
        assert chi_square_gof(cp, probs)[1] > P_GATE

    @pytest.mark.parametrize("theta", [F(1, 2), 2], ids=str)
    def test_op_level_constructions_follow_ewens(self, theta):
        rng = RngStream(28).generator()
        idx = {c.code: i for i, c in enumerate(enumerate_compositions(5))}
        cu = np.zeros(16)
        cp = np.zeros(16)
        for _ in range(10000):
            cu[idx[uniform_sampling_composition(ScaleInvariantSet(theta, rng), 5, rng).code]] += 1
            cp[idx[poisson_sampling_composition(ScaleInvariantSet(theta, rng), 5, rng).code]] += 1
        probs = ewens_cpf(theta).float_probs(5)
        assert chi_square_gof(cu, probs)[1] > P_GATE
        assert chi_square_gof(cp, probs)[1] > P_GATE

    @pytest.mark.parametrize("theta", [0.5, 2.0])
    def test_gap_is_the_gap_of_the_atom_set(self, theta):
        rng = RngStream(29).generator()
        split = set()
        for _ in range(500):
            sset = ScaleInvariantSet(theta, rng)
            u, v = sorted(1.0 - rng.random(2))
            for w in (u, v):
                a, b = sset.gap(w)
                assert 0 < a < w <= b <= 1
            assert sset.gap(1.0)[1] == 1.0
            split.add(sset.has_atom_in(u, v))
            assert sset.has_atom_in(u, v) == (sset.gap(u) != sset.gap(v))
        assert split == {True, False}
        for bad in (0.0, -0.5, 1.5, float("nan")):
            with pytest.raises(ValueError):
                sset.gap(bad)

    def test_poisson_n1(self):
        rng = RngStream(25).generator()
        sset = ScaleInvariantSet(1.0, rng)
        assert poisson_sampling_composition(sset, 1, rng) == C((1,))

    def test_dense_set_gives_singletons(self):
        class Dense:
            def has_atom_in(self, a, b):
                return True

        rng = RngStream(26).generator()
        assert poisson_sampling_composition(Dense(), 5, rng) == C((1,) * 5)

    def test_nacu_indicator_probabilities(self):
        # digit j of the Poisson-sampling string is 1 with probability g(j)
        theta = 1.0
        spec = two_param_levy(0, 1)
        draws = 30000
        codes = batch_poisson_construction(theta, 6, draws, RngStream(27))
        bits = (codes[:, None] >> np.arange(5, -1, -1)) & 1
        freq = bits.mean(axis=0)
        for j in range(1, 7):
            g = float(potential_from_levy(spec, j))
            se = (g * (1 - g) / draws) ** 0.5 if 0 < g < 1 else 1e-9
            assert abs(freq[j - 1] - g) < 4 * se + 1e-12

    @pytest.mark.parametrize("construction", [batch_uniform_construction,
                                              batch_poisson_construction],
                             ids=["uniform-set", "poisson-set"])
    @pytest.mark.parametrize("theta", [0.5, 2.0])
    def test_ewens_digits_at_n63(self, construction, theta):
        # both constructions give independent Ewens digits,
        # P(xi_j = 1) = theta/(j+theta-1), at the largest code size too
        n, draws = 63, 20000
        codes = construction(theta, n, draws, RngStream(28))
        bits = (codes[:, None] >> np.arange(n - 1, -1, -1)) & 1
        p = theta / (np.arange(1, n + 1) + theta - 1.0)
        se = np.sqrt(p * (1 - p) / draws)
        assert (bits[:, 0] == 1).all()
        assert (np.abs(bits[:, 1:].mean(axis=0) - p[1:]) < 5 * se[1:]).all()
        # E K_n = sum_j theta/(theta+j-1), Var K_n = sum_j p_j (1-p_j)
        k_se = np.sqrt((p * (1 - p)).sum() / draws)
        assert abs(bits.sum(axis=1).mean() - p.sum()) < 5 * k_se


def _enumerated_fragment(outer: Cpf, inner: Cpf, comp):
    """Oracle: the sum over all 2^(l-1) segmentations of comp into
    consecutive segments, outer at the segment sums times inner of each."""
    parts = comp.parts
    ell = len(parts)
    total = 0
    for mask in range(1 << (ell - 1)):
        # bit k set = boundary after part k+1
        segments = []
        start = 0
        for k in range(ell - 1):
            if mask >> k & 1:
                segments.append(parts[start:k + 1])
                start = k + 1
        segments.append(parts[start:])
        val = outer(C(tuple(sum(s) for s in segments)))
        for seg in segments:
            val = val * inner(C(seg))
        total = total + val
    return total


def _outer_pairs():
    stat = two_param_stationary_pair(F(1, 3), F(2, 3))
    rebuilt, _ = reconstruct_markov(structural_moments(markov_cpf(stat), 9))
    return {"ewens": ewens_pair(F(1, 2)), "stationary": stat,
            "control": DecrementMatrixPair(q=stat.q, qstar=stat.q, label="control"),
            "reconstructed": rebuilt}


class TestFragmentation:
    @pytest.mark.parametrize("outer", ["ewens", "stationary", "control", "reconstructed"])
    def test_recursion_equals_segmentation_sum(self, outer):
        outer = _outer_pairs()[outer]
        inners = [renewal_cpf(F(1, 2)), renewal_cpf(F(1, 2), reversed_=True),
                  sibi_cpf(F(1, 2), F(1, 2)),
                  Cpf("one", lambda c: F(int(c.num_parts == 1))),
                  Cpf("ones", lambda c: F(int(all(p == 1 for p in c.parts))))]
        for inner in inners:
            frag, oracle = fragment_cpf(outer, inner), markov_cpf(outer)
            for n in range(1, 9):
                for c in enumerate_compositions(n):
                    got, want = frag(c), _enumerated_fragment(oracle, inner, c)
                    assert type(got) is type(want) and got == want, (inner.name, c)

    def test_float_recursion_matches_segmentation_sum(self):
        pairs = [ewens_pair(0.5), two_param_stationary_pair(1 / 3, 2 / 3)]
        pairs.append(DecrementMatrixPair(q=pairs[1].q, qstar=pairs[1].q))
        for outer in pairs:
            for inner in (renewal_cpf(0.5), renewal_cpf(0.5, reversed_=True),
                          sibi_cpf(0.5, 0.5)):
                frag, oracle = fragment_cpf(outer, inner), markov_cpf(outer)
                for n in range(1, 9):
                    for c in enumerate_compositions(n):
                        want = _enumerated_fragment(oracle, inner, c)
                        assert abs(frag(c) - want) <= 1e-12 * abs(want), (inner.name, c)

    def test_outer_must_be_a_pair(self):
        with pytest.raises(TypeError, match="DecrementMatrixPair"):
            fragment_cpf(ewens_cpf(1), renewal_cpf(F(1, 2)))

    def test_name_is_the_outer_cpf_name(self):
        inner = renewal_cpf(F(1, 2))
        assert fragment_cpf(ewens_pair(1), inner).name == "fragment[ewens|renewal]"
        pair = two_param_stationary_pair(F(1, 2), 1)
        assert (fragment_cpf(pair, inner).name
                == f"fragment[{markov_cpf(pair).name}|renewal]")

    def test_cpf_normalizes(self):
        frag = fragment_cpf(ewens_pair(1), renewal_cpf(F(1, 2), reversed_=True))
        for n in range(1, 8):
            assert sum(frag(c) for c in enumerate_compositions(n)) == 1

    def test_one_block_inner_is_identity(self):
        one = lambda c: F(int(c.num_parts == 1))
        frag = fragment_cpf(ewens_pair(1), Cpf("one", one))
        ew = ewens_cpf(1)
        for n in range(1, 7):
            for c in enumerate_compositions(n):
                assert frag(c) == ew(c)

    def test_singleton_inner(self):
        singles = Cpf("ones", lambda c: F(int(all(p == 1 for p in c.parts))))
        frag = fragment_cpf(ewens_pair(1), singles)
        for n in range(1, 7):
            for c in enumerate_compositions(n):
                assert frag(c) == F(int(all(p == 1 for p in c.parts)))

    def test_sampler_matches_cpf(self):
        frag = fragment_cpf(ewens_pair(1), renewal_cpf(F(1, 2), reversed_=True))
        draws = 20000
        outer = batch_ewens_strings(1.0, 5, draws, RngStream(31))
        # one independent renewal row per part slot; the top r digits of a
        # row are a draw at r, reversed for the reversed renewal law
        inner = np.stack([batch_renewal_strings(0.5, 5, draws, RngStream(31, slot))
                          for slot in range(1, 6)], axis=1)
        codes = []
        for code, row in zip(outer.tolist(), inner.tolist()):
            parts = ()
            for r, icode in zip(Composition.from_code(code, 5).parts, row):
                parts += Composition.from_code(icode >> (5 - r), r).reverse().parts
            codes.append(Composition(parts).code)
        counts = codes_to_counts(np.array(codes), 5)
        assert chi_square_gof(counts, frag.float_probs(5))[1] > P_GATE

    def test_product_is_uniform_consistent_but_not_right_consistent(self):
        # fragmenting with a left-consistent inner law preserves sampling
        # consistency yet breaks right-consistency
        from compstruct.verify import (check_right_consistency,
                                       check_uniform_consistency)

        frag = fragment_cpf(ewens_pair(1), renewal_cpf(F(1, 2), reversed_=True))
        assert check_uniform_consistency(frag, 5).passed
        assert not check_right_consistency(frag, 5).passed

    def test_does_not_reproduce_stationary_family(self):
        # the restricted-set product differs from the stationary law already
        # at n = 2: 1/2 * 1/2 != 1/3
        frag = fragment_cpf(ewens_pair(1), renewal_cpf(F(1, 2), reversed_=True))
        mk = markov_cpf(two_param_stationary_pair(F(1, 2), 1))
        assert frag(C((2,))) == F(1, 4)
        assert mk(C((2,))) == F(1, 3)


class TestArrangement:
    def test_matches_stationary_table(self):
        a = F(1, 2)
        mk = markov_cpf(two_param_stationary_pair(a, 1))
        parts = sample_partition_batch(a, a, 5, DRAWS, RngStream(41))
        codes = batch_arrangements(parts, 5, 0.5, 0.5, RngStream(41))
        assert gof_pvalue(codes, mk, 5) > P_GATE

    def test_conditional_law_of_fixed_partition(self):
        # conditionally on the parts the arrangement law is the stationary
        # CPF restricted to the partition class
        a = F(1, 2)
        mk = markov_cpf(two_param_stationary_pair(a, 1))
        lam = Partition((2, 1, 1))
        cls = [c for c in enumerate_compositions(4) if c.rank() == lam]
        total = sum(mk(c) for c in cls)
        target = [float(mk(c) / total) for c in cls]
        draws = 30000
        parts = np.tile(np.array(lam.parts, dtype=np.int64), (draws, 1))
        codes = batch_arrangements(parts, 4, 0.5, 0.5, RngStream(42))
        counts = codes_to_counts(codes, 4)
        obs = [counts[i] for i, c in enumerate(enumerate_compositions(4))
               if c.rank() == lam]
        assert chi_square_gof(obs, target)[1] > P_GATE

    def test_alpha0_is_pure_size_biased(self):
        # tau = 0: every step is a size-biased pick, i.e. the sibi law
        a, t = F(0), 1
        sib = sibi_cpf(a, t - 0)  # partition (0, theta) arrangement
        lam = Partition((2, 1, 1))
        cls = [c for c in enumerate_compositions(4) if c.rank() == lam]
        total = sum(sib(c) for c in cls)
        target = [float(sib(c) / total) for c in cls]
        draws = 30000
        parts = np.tile(np.array(lam.parts, dtype=np.int64), (draws, 1))
        codes = batch_arrangements(parts, 4, 0.0, 1.0, RngStream(43))
        counts = codes_to_counts(codes, 4)
        obs = [counts[i] for i, c in enumerate(enumerate_compositions(4))
               if c.rank() == lam]
        assert chi_square_gof(obs, target)[1] > P_GATE

    def test_theta0_uniform_remainder_order(self):
        # tau = 1/2 at theta = 0: after the size-biased pick all orders of
        # the remaining parts are equally likely
        lam = Partition((3, 2, 1))
        draws = 30000
        parts = np.tile(np.array(lam.parts, dtype=np.int64), (draws, 1))
        codes = batch_arrangements(parts, 6, 0.5, 0.0, RngStream(44))
        counts = codes_to_counts(codes, 6)
        # group by last part; within a group both orders must be uniform
        by_code = {c.code: counts[i]
                   for i, c in enumerate(enumerate_compositions(6))}
        for last in (1, 2, 3):
            rest = [p for p in lam.parts if p != last]
            c1 = by_code[C(tuple(rest) + (last,)).code]
            c2 = by_code[C(tuple(rest[::-1]) + (last,)).code]
            total = c1 + c2
            se = (total * 0.25) ** 0.5
            assert abs(c1 - total / 2) < 4 * se

    def test_rows_keep_their_parts(self):
        # rows with different part counts come back in input order
        a = F(1, 2)
        parts = sample_partition_batch(a, a, 6, 2000, RngStream(47))
        codes = batch_arrangements(parts, 6, 0.5, 0.5, RngStream(47))
        for row, code in zip(parts, codes):
            arranged = Composition.from_code(int(code), 6)
            assert arranged.rank() == Partition(tuple(int(p) for p in row if p > 0))

    @pytest.mark.parametrize("alpha, theta", [(1.5, 1.0), (1.0, 1.0), (-0.1, 1.0),
                                              (0.5, -0.5), (0.0, 0.0)])
    def test_rejects_bad_parameters(self, alpha, theta):
        parts = np.tile(np.array([2, 1, 1]), (10, 1))
        with pytest.raises(ValueError):
            batch_arrangements(parts, 4, alpha, theta, RngStream(1))
        with pytest.raises(ValueError):
            sample_partition_batch(alpha, theta, 4, 10, RngStream(1))

    def test_rejects_rows_that_are_not_partitions_of_n(self):
        with pytest.raises(ValueError, match="partition"):
            batch_arrangements(np.array([[2, 1], [2, 2]]), 3, 0.5, 0.5, RngStream(1))
        with pytest.raises(ValueError, match="partition"):
            batch_arrangements(np.array([[4, -1]]), 3, 0.5, 0.5, RngStream(1))

    def test_per_draw_op(self):
        parts = np.tile(np.array([2, 1], dtype=np.int64), (200, 1))
        codes = batch_arrangements(parts, 3, F(1, 2), F(1, 2), RngStream(45))
        seen = {Composition.from_code(int(c), 3).parts for c in codes}
        assert seen <= {(2, 1), (1, 2)}
        assert len(seen) == 2

    def test_partition_batch_at_n12(self):
        parts = sample_partition_batch(F(1, 3), F(2, 3), 12, 500, RngStream(48))
        assert parts.shape[0] == 500 and (parts.sum(axis=1) == 12).all()

    @pytest.mark.parametrize("n", [0, -3])
    def test_partition_batch_rejects_n_below_one(self, n):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            sample_partition_batch(F(1, 2), F(1, 2), n, 10, RngStream(1))

    def test_partition_batch_law(self):
        a = F(1, 2)
        parts = sample_partition_batch(a, a, 4, DRAWS, RngStream(46))
        # empirical partition frequencies match pi_{1/2,1/2}
        keys = {}
        for row in parts:
            key = tuple(sorted([p for p in row if p > 0], reverse=True))
            keys[key] = keys.get(key, 0) + 1
        lams = enumerate_partitions(4)
        obs = [keys.get(l.parts, 0) for l in lams]
        probs = [float(partition_law(a, a, l)) for l in lams]
        assert chi_square_gof(obs, probs)[1] > P_GATE
