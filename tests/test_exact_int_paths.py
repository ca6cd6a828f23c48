"""The int paths of the exact layer give the Fraction oracle's reports, rows and text."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import check_oracle
from compstruct.laws import (Cpf, DecrementMatrix, DecrementMatrixPair, ewens_pair,
                             fragment_cpf, markov_cpf, renewal_cpf, renewal_pair,
                             two_param_stationary_pair)
from compstruct.ratmath import parse_scalar
from compstruct.structural import (StructuralMoments, block_count_row, expected_num_parts,
                                   reconstruct_markov, size_biased_part_law,
                                   structural_moments)
from compstruct.tables import cpf_table_lines, cpf_table_tree, to_json
from compstruct.verify import check_decrement_recursions


def _control():
    q = two_param_stationary_pair(F(1, 2), 1).q
    return DecrementMatrixPair(q, q, "control")


def _reconstructed():
    moments = structural_moments(markov_cpf(two_param_stationary_pair(F(1, 3), F(2, 3))), 11)
    return reconstruct_markov(moments)[0]  # q rows <= 10, q* rows <= 11


def _mixed_table():
    # as a markov-table file with fractions for n <= 2 and decimals beyond
    pair0 = two_param_stationary_pair(F(1, 2), 1)
    return DecrementMatrixPair(
        DecrementMatrix("q", lambda n, r: pair0.q(n, r) if n <= 2 else float(pair0.q(n, r))),
        DecrementMatrix("q*", lambda n, r: pair0.qstar(n, r) if n <= 2
                        else float(pair0.qstar(n, r))), "mixed")


def _bumped(kind, n, r, bump, params=(F(1, 2), 1)):
    """The stationary pair with ``bump`` added to entry (n, r) of q or q*."""
    pair0 = two_param_stationary_pair(*params)
    base = pair0.q if kind == "q" else pair0.qstar
    bumped = DecrementMatrix(kind, lambda m, s: base(m, s) + (bump if (m, s) == (n, r) else 0))
    if kind == "q":
        return DecrementMatrixPair(bumped, pair0.qstar, "bumped")
    return DecrementMatrixPair(pair0.q, bumped, "bumped")


PAIRS = {
    "stationary(1/2,1)": lambda: two_param_stationary_pair(F(1, 2), 1),
    "stationary(1/3,2/3)": lambda: two_param_stationary_pair(F(1, 3), F(2, 3)),
    "stationary(0.5,1.0)": lambda: two_param_stationary_pair(0.5, 1.0),
    "control": _control,
    "renewal-reversed": lambda: renewal_pair(F(1, 2), reversed_=True),
    "reconstructed": _reconstructed,
    "mixed-table": _mixed_table,
    "bumped-q": lambda: _bumped("q", 4, 2, F(1, 100)),
    "bumped-q*": lambda: _bumped("q*", 4, 2, F(-1, 100)),
}


@pytest.mark.parametrize("n_max", [1, 2, 5, 9])
@pytest.mark.parametrize("name", PAIRS)
def test_recursion_report_equals_the_oracle(name, n_max):
    pair = PAIRS[name]()
    assert (str(check_decrement_recursions(pair, n_max))
            == str(check_oracle.check_decrement_recursions(pair, n_max)))


def test_missing_entry_raises_the_oracles_error():
    # q*(3:2) is read at n = 3 before q(4:4), the first entry a row read meets
    pair0 = two_param_stationary_pair(F(1, 2), 1)

    def lacking(kind, m):
        def entry(n, r):
            if (kind, n, r) in {("q*", 3, 2), ("q", 4, 4)}:
                raise ValueError(f"lacks {kind}({n}:{r})")
            return m(n, r)
        return DecrementMatrix(kind, entry)

    pair = DecrementMatrixPair(lacking("q", pair0.q), lacking("q*", pair0.qstar), "lacking")
    for check in (check_decrement_recursions, check_oracle.check_decrement_recursions):
        with pytest.raises(ValueError, match=r"^lacks q\*\(3:2\)$"):
            check(pair, 5)
    with pytest.raises(ValueError, match="reconstructed q only covers n <= 10"):
        check_decrement_recursions(_reconstructed(), 10)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(F(1, 2), 1), (F(1, 3), F(2, 3)), (0, F(3, 2))]),
       st.sampled_from(["q", "q*"]),
       st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       st.fractions(min_value=-1, max_value=1, max_denominator=1000).filter(bool))
@example((F(1, 2), 1), "q", (8, 8), F(1, 7))
@example((F(1, 2), 1), "q*", (1, 1), F(-1, 3))
def test_recursion_report_of_a_bumped_pair_equals_the_oracle(params, kind, entry, bump):
    # a bumped entry breaks the recursions at n and n - 1 that read it
    pair = _bumped(kind, *entry, bump, params)
    report = check_decrement_recursions(pair, 7)
    assert not report.passed
    assert str(report) == str(check_oracle.check_decrement_recursions(pair, 7))


MOMENTS = {
    "stationary(1/3,2/3)": lambda: structural_moments(
        markov_cpf(two_param_stationary_pair(F(1, 3), F(2, 3))), 40),
    "ewens(3/2)": lambda: structural_moments(markov_cpf(ewens_pair(F(3, 2))), 40),
    "renewal(1/4)": lambda: structural_moments(renewal_cpf(F(1, 4)), 40),
}


@pytest.mark.parametrize("name", MOMENTS)
def test_block_counts_equal_the_oracle_to_n40(name):
    moments = MOMENTS[name]()
    for n in range(1, 41):
        row, want = block_count_row(moments, n), check_oracle.block_count_row(moments, n)
        assert row == want and all(type(v) is F for v in row)
        assert expected_num_parts(moments, n) == sum(want)
        assert size_biased_part_law(moments, n) == check_oracle.size_biased_part_law(moments, n)


def test_float_and_mixed_block_counts_are_the_oracles_bits():
    exact = structural_moments(markov_cpf(two_param_stationary_pair(F(1, 2), 1)), 12)
    for p in ([float(v) for v in exact.p], [1.0] + list(exact.p[1:])):
        moments = StructuralMoments(tuple(p))
        for n in range(1, 13):
            for new, old in ((block_count_row, check_oracle.block_count_row),
                             (size_biased_part_law, check_oracle.size_biased_part_law)):
                got, want = new(moments, n), old(moments, n)
                assert [(type(v), v) for v in got] == [(type(v), v) for v in want]


def _mixed_cpf():
    exact = markov_cpf(two_param_stationary_pair(F(1, 2), 1))
    return Cpf("mixed", lambda c: exact(c) if c.n <= 2 else float(exact(c)))


CPFS = {name: (lambda make=make: markov_cpf(make())) for name, make in PAIRS.items()}
CPFS.update({
    "fragment": lambda: fragment_cpf(ewens_pair(1), renewal_cpf(F(1, 2), reversed_=True)),
    "one-block": lambda: Cpf("one-block", lambda c: 1 if c.num_parts == 1 else 0),
    "mixed-values": _mixed_cpf,
})


@pytest.mark.parametrize("n", [1, 2, 5, 8])
@pytest.mark.parametrize("name", CPFS)
def test_table_text_equals_the_oracle(name, n):
    cpf = CPFS[name]()
    assert cpf_table_lines(cpf, n) == check_oracle.cpf_table_lines(cpf, n)
    assert to_json(cpf_table_tree(cpf, n)) == to_json(check_oracle.cpf_table_tree(cpf, n))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789+-/_.e ١", max_size=10))
@example("+3/4")
@example("-0/7")
@example("1/0")
@example("3/-4")
@example("١/2")
@example("1_0/3")
@example(" 12/8 ")
@example("1e3")
def test_parse_scalar_equals_fraction_or_float(text):
    try:
        want = check_oracle.parse_scalar(text)
    except Exception as exc:  # the same type must be raised
        with pytest.raises(Exception) as caught:
            parse_scalar(text)
        assert type(caught.value) is type(exc)
        return
    got = parse_scalar(text)
    assert type(got) is type(want) and got == want
