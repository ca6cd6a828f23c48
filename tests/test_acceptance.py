"""Acceptance gate: twelve criteria, one pass/fail line each.

Every criterion prints a single ``[criterion N] pass/FAIL`` line.  Criterion 8
checks the fragmentation identity: the stationary (alpha, theta) law is the
Ewens(theta - alpha) composition fragmented by the forward renewal(alpha)
composition (see its docstring for why the outer parameter is theta - alpha).
"""

import time
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.stats import ks_2samp

from compstruct.composition import (Composition, Partition,
                                    enumerate_compositions)
from compstruct.laws import (DecrementMatrixPair, ewens_cpf, ewens_pair,
                             fragment_cpf, levy_exponent,
                             markov_cpf,
                             polya_q, potential_from_levy, renewal_cpf,
                             two_param_levy, two_param_q,
                             two_param_stationary_pair)
from compstruct.ratmath import rising
from compstruct.stochastic import (RngStream, ScaleInvariantSet,
                                   batch_arrangements,
                                   batch_poisson_construction,
                                   batch_uniform_construction, codes_to_counts,
                                   sample_partition_batch)
from compstruct.structural import (StructuralMoments, block_count_row,
                                   deletion_law, last_part_law,
                                   potential_from_cpf, reconstruct_markov,
                                   size_biased_part_law, structural_moments)
from compstruct.verify import (check_decrement_recursions,
                               check_right_consistency,
                               check_theorem_SL, check_uniform_consistency,
                               chi_square_gof)
from levy_oracle import levy_binomial

C = Composition
P_GATE = 1e-3

EWENS_THETAS = (F(1, 2), 1, 2)
RENEWAL_ALPHAS = (F(1, 3), F(1, 2))
STATIONARY_PARAMS = ((F(1, 2), 1), (F(1, 3), F(2, 3)))


def all_families():
    fams = [(f"ewens({t})", ewens_cpf(t)) for t in EWENS_THETAS]
    fams += [(f"renewal({a})", renewal_cpf(a)) for a in RENEWAL_ALPHAS]
    fams += [(f"stationary{(a, t)}", markov_cpf(two_param_stationary_pair(a, t)))
             for a, t in STATIONARY_PARAMS]
    return fams


def emit(num, ok, detail):
    verdict = "pass" if ok else "FAIL"
    print(f"[criterion {num:2d}] {verdict}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_normalization():
    t0 = time.time()
    for name, cpf in all_families():
        for n in range(1, 11):
            total = sum(p for _, p in cpf.table(n))
            assert total == 1, (name, n, total)
    elapsed = time.time() - t0
    emit(1, elapsed < 5.0,
         f"exact normalization, 7 families, n <= 10 ({elapsed:.2f}s)")


def test_criterion_02_self_similarity():
    for name, cpf in all_families():
        assert check_uniform_consistency(cpf, 9).passed, name
        assert check_right_consistency(cpf, 9).passed, name
    # negative control: q* := q is the reversed regenerative composition;
    # right-consistency must fail (with a witness) whenever alpha > 0
    q = two_param_q(F(1, 2), 1)
    control = markov_cpf(DecrementMatrixPair(q, q, "control"))
    rep = check_right_consistency(control, 7)
    assert not rep.passed and rep.worst is not None
    # ... and must pass at alpha = 0
    q0 = two_param_q(0, 1)
    assert check_right_consistency(
        markov_cpf(DecrementMatrixPair(q0, q0, "control0")), 7).passed
    emit(2, True, "uniform+right consistency n <= 9; regenerative control "
                  f"fails right-consistency at {rep.worst[0]}, passes at alpha=0")


def test_criterion_03_decrement_calculus():
    worst_float = 0.0
    for a, t in STATIONARY_PARAMS:
        spec, fspec = two_param_levy(a, t), two_param_levy(float(a), float(t))
        q_closed = two_param_q(a, t)
        for n in range(1, 11):
            phi_n = levy_exponent(spec, n)
            for m in range(1, n + 1):
                # Levy-binomial path vs closed form, exact
                assert levy_binomial(spec, n, m) / phi_n \
                    == q_closed(n, m)
                # float path
                fl = levy_binomial(fspec, n, m) / levy_exponent(fspec, n)
                worst_float = max(worst_float, abs(fl - float(q_closed(n, m))))
        assert check_decrement_recursions(
            two_param_stationary_pair(a, t), 9).passed
    emit(3, worst_float < 1e-9,
         f"decrement entries: exact identity n <= 10, float gap {worst_float:.2e}; "
         "entrywise recursions exact")


def test_criterion_04_qstar_identity():
    for a, t in STATIONARY_PARAMS:
        pair = two_param_stationary_pair(a, t)
        shifted = polya_q(a, t - a)
        for n in range(1, 11):
            for r in range(1, n + 1):
                assert pair.qstar(n, r) == shifted(n, r), (a, t, n, r)
    emit(4, True, "q* of the stationary pair equals the Polya matrix with "
                  "theta shifted by -alpha, exact n <= 10")


def test_criterion_05_last_part_law():
    for name, cpf in all_families():
        assert check_theorem_SL(cpf, 9).passed, name
        mom = structural_moments(cpf, 9)
        for n in range(2, 10):
            omega = deletion_law(block_count_row(mom, n),
                                 block_count_row(mom, n - 1))
            assert list(omega) == list(size_biased_part_law(mom, n)), (name, n)
    emit(5, True, "last-part law = size-biased part law, and the deletion "
                  "law agrees with r*mu/n, exact n <= 9, 7 families")


def test_criterion_06_reconstruction():
    for name, cpf in all_families():
        mom = structural_moments(cpf, 9)
        _, rebuilt = reconstruct_markov(mom)
        for n in range(1, 9):
            for c in enumerate_compositions(n):
                assert rebuilt(c) == cpf(c), (name, c)
    emit(6, True, "one-part moments p(1..9) rebuild each CPF bit-equal, n <= 8")


def test_criterion_07_potential_triple():
    worst = 0.0
    a, t = F(1, 2), 1
    cpf = markov_cpf(two_param_stationary_pair(a, t))
    mom = structural_moments(cpf, 11)
    spec = two_param_levy(a, t)
    for j in range(1, 11):
        exact = potential_from_cpf(mom, j)  # E(1-V)^(j-1) via mu_j - mu_{j-1}
        assert potential_from_levy(spec, j) == exact
        worst = max(worst, abs(potential_from_levy(two_param_levy(float(a), float(t)), j)
                               - float(exact)))
    # closed forms
    mom_e = structural_moments(ewens_cpf(2), 11)
    mom_s = structural_moments(markov_cpf(two_param_stationary_pair(a, a)), 11)
    for j in range(1, 11):
        assert potential_from_cpf(mom_e, j) == F(2, j + 1)
        assert potential_from_cpf(mom_s, j) == \
            rising(a, j - 1) / __import__("math").factorial(j - 1)
    emit(7, worst < 1e-8,
         f"potential triple agreement j <= 10, float gap {worst:.2e}; "
         "Ewens and stable closed forms exact")


def test_criterion_08_fragmentation_identity():
    """Stationary (alpha, theta) = Ewens(theta - alpha) fragmented by renewal(alpha).

    This is Pitman's coagulation-fragmentation duality
    PD(alpha, theta') = Frag_{PD(alpha, 0)} PD(0, theta') with theta' =
    theta - alpha: the stationary (alpha, theta) composition has partition
    PD(alpha, theta - alpha) (criteria 4 and 11).  The outer parameter must be
    theta - alpha, not theta: at n = 2 the stationary law gives
    P((2,)) = (1 - alpha)/(1 + theta - alpha), 1/3 at (1/2, 1), while
    fragmenting Ewens(theta) by any inner law with P((2,)) = 1 - alpha gives
    (1 - alpha)/(1 + theta) = 1/4.  The inner factor is the forward renewal
    law, whose last part is the stable meander; at (1/2, 1) the reversed
    renewal law already fails at n = 3 (the product gives 1/5 for (2, 1),
    the stationary law 2/15).  ``test_stochastic.py`` keeps the
    Ewens(1) x reversed renewal(1/2) product as a counterexample.
    """
    t0 = time.time()
    mismatches = []
    for a, t in STATIONARY_PARAMS:
        frag = fragment_cpf(ewens_pair(t - a), renewal_cpf(a))
        target = markov_cpf(two_param_stationary_pair(a, t))
        mismatches += [((a, t), c, frag(c), target(c))
                       for n in range(1, 11) for c in enumerate_compositions(n)
                       if frag(c) != target(c)]
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 30.0
    pairs = ", ".join(f"({a},{t})" for a, t in STATIONARY_PARAMS)
    detail = (f"Ewens(theta-alpha) fragmented by renewal(alpha) vs stationary "
              f"(alpha, theta) at {pairs}, n <= 10 ({elapsed:.2f}s)")
    if mismatches:
        (a, t), c, got, want = mismatches[0]
        detail += (f"; first mismatch at (alpha, theta) = ({a}, {t}), "
                   f"{c.parts}: product gives {got}, stationary law gives {want}")
    emit(8, ok, detail)


def gof_pvalue(codes, cpf, n):
    counts = codes_to_counts(codes, n)
    return chi_square_gof(counts, cpf.float_probs(n))[1]


def test_criterion_09_monte_carlo_constructions():
    target = ewens_cpf(1)
    t0 = time.time()
    codes1 = batch_uniform_construction(1.0, 5, 200_000, RngStream(101))
    p1 = gof_pvalue(codes1, target, 5)
    t1 = time.time() - t0
    t0 = time.time()
    codes2 = batch_poisson_construction(1.0, 5, 200_000, RngStream(102))
    p2 = gof_pvalue(codes2, target, 5)
    t2 = time.time() - t0
    ok = p1 > P_GATE and p2 > P_GATE and t1 < 60 and t2 < 60
    emit(9, ok, f"uniform-set p={p1:.3f} ({t1:.1f}s), "
                f"poisson-set p={p2:.3f} ({t2:.1f}s), n=5, 2e5 draws, seeds 101/102")


def test_criterion_10_meander_equals_tagged_gap():
    g = RngStream(104).generator()
    half = 50_000
    A = np.empty(half)
    V = np.empty(half)
    for i in range(half):
        A[i] = 1.0 - ScaleInvariantSet(1.0, g).gap(1.0)[0]
    for i in range(half):
        a, b = ScaleInvariantSet(1.0, g).gap(1.0 - g.random())
        V[i] = b - a
    _, p = ks_2samp(A, V)
    # theta = 1 meander is Beta(1, 1): mean 1/2, second moment 1/3
    se1 = (1.0 / 12 / half) ** 0.5
    se2 = ((1.0 / 5 - 1.0 / 9) / half) ** 0.5
    ok = (p > P_GATE and abs(A.mean() - 0.5) < 3 * se1
          and abs((A ** 2).mean() - 1.0 / 3) < 3 * se2)
    emit(10, ok, f"meander vs tagged gap KS p={p:.3f} at 1e5 draws, seed 104; "
                 f"moments within 3 sigma (mean {A.mean():.4f})")


def test_criterion_11_arrangement():
    a = F(1, 2)
    target = markov_cpf(two_param_stationary_pair(a, 1))
    parts = sample_partition_batch(a, a, 6, 200_000, RngStream(103))
    codes = batch_arrangements(parts, 6, 0.5, 0.5, RngStream(103))
    p = gof_pvalue(codes, target, 6)
    # theta = 0 uniform remainder order: after the size-biased pick of the
    # last part, both orders of the remaining two parts are equally likely
    lam = Partition((3, 2, 1))
    tiles = np.tile(np.array(lam.parts, dtype=np.int64), (30_000, 1))
    codes0 = batch_arrangements(tiles, 6, 0.5, 0.0, RngStream(105))
    counts = codes_to_counts(codes0, 6)
    by_code = {c.code: counts[i]
               for i, c in enumerate(enumerate_compositions(6))}
    uniform_ok = True
    for last in (1, 2, 3):
        rest = [q for q in lam.parts if q != last]
        c1 = by_code[C(tuple(rest) + (last,)).code]
        c2 = by_code[C(tuple(rest[::-1]) + (last,)).code]
        total = c1 + c2
        uniform_ok &= abs(c1 - total / 2) < 3 * (total * 0.25) ** 0.5
    ok = p > P_GATE and uniform_ok
    emit(11, ok, f"arranged (1/2,1/2) partitions vs stationary (1/2,1) table, "
                 f"n=6, 2e5 draws, seed 103: p={p:.3f}; theta=0 remainder "
                 f"orders uniform within 3 sigma")


def test_criterion_12_determinism():
    reps = []
    reps.append(np.array_equal(
        batch_uniform_construction(1.0, 5, 200_000, RngStream(101)),
        batch_uniform_construction(1.0, 5, 200_000, RngStream(101))))
    reps.append(np.array_equal(
        batch_poisson_construction(1.0, 5, 200_000, RngStream(102)),
        batch_poisson_construction(1.0, 5, 200_000, RngStream(102))))
    parts1 = sample_partition_batch(F(1, 2), F(1, 2), 6, 200_000, RngStream(103))
    parts2 = sample_partition_batch(F(1, 2), F(1, 2), 6, 200_000, RngStream(103))
    reps.append(np.array_equal(parts1, parts2))
    reps.append(np.array_equal(
        batch_arrangements(parts1, 6, 0.5, 0.5, RngStream(103)),
        batch_arrangements(parts2, 6, 0.5, 0.5, RngStream(103))))
    g1 = RngStream(104).generator()
    g2 = RngStream(104).generator()
    s1, s2 = ScaleInvariantSet(1.0, g1), ScaleInvariantSet(1.0, g2)
    reps.append(all(s1.gap(u) == s2.gap(u) for u in (1.0, 0.5, 1e-12)))
    emit(12, all(reps), "all seeded sampling runs byte-reproducible "
                        "(seeds 101-104)")
