"""The code-indexed consistency checks give the enumerating oracle's reports."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import check_oracle
from compstruct.composition import enumerate_compositions
from compstruct.laws import (Cpf, DecrementMatrix, DecrementMatrixPair, ewens_pair,
                             fragment_cpf, markov_cpf, renewal_cpf,
                             two_param_stationary_pair)
from compstruct.verify import (check_right_consistency, check_theorem_SL,
                               check_uniform_consistency)


def _stationary(alpha, theta):
    return markov_cpf(two_param_stationary_pair(alpha, theta))


def _control():
    q = two_param_stationary_pair(F(1, 2), 1).q
    return markov_cpf(DecrementMatrixPair(q, q, "control"))


def _mixed():
    exact = _stationary(F(1, 2), 1)
    return Cpf("mixed", lambda c: exact(c) if c.n <= 2 else float(exact(c)))


def _bumped_qstar():
    pair0 = two_param_stationary_pair(F(1, 2), 1)

    def bumped(n, r):
        v = pair0.qstar(n, r)
        return v + {(4, 2): F(1, 100), (4, 1): F(-1, 100)}.get((n, r), 0)

    return markov_cpf(DecrementMatrixPair(q=pair0.q, qstar=DecrementMatrix("q*", bumped)))


CPFS = {
    "stationary(1/2,1)": lambda: _stationary(F(1, 2), 1),
    "stationary(1/3,2/3)": lambda: _stationary(F(1, 3), F(2, 3)),
    "stationary(0.5,1.0)": lambda: _stationary(0.5, 1.0),
    "control": _control,
    "renewal-reversed": lambda: renewal_cpf(F(1, 2), reversed_=True),
    "fragment": lambda: fragment_cpf(ewens_pair(1), renewal_cpf(F(1, 2), reversed_=True)),
    "one-block": lambda: Cpf("one-block", lambda c: 1 if c.num_parts == 1 else 0),
    "mixed": _mixed,
    "bumped-q*": _bumped_qstar,
}
CHECKS = {
    "right": (check_right_consistency, check_oracle.check_right_consistency),
    "uniform": (check_uniform_consistency, check_oracle.check_uniform_consistency),
    "S=L": (check_theorem_SL, check_oracle.check_theorem_SL),
}


@pytest.mark.parametrize("n_max", [1, 2, 5, 9])
@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("name", CPFS)
def test_report_equals_the_oracle(name, check, n_max):
    new, oracle = CHECKS[check]
    cpf = CPFS[name]()
    assert str(new(cpf, n_max)) == str(oracle(cpf, n_max))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(F(1, 2), 1), (F(1, 3), F(2, 3)), (0, F(3, 2))]),
       st.integers(1, 7).flatmap(lambda n: st.tuples(
           st.just(n), st.integers(0, (1 << (n - 1)) - 1))),
       st.fractions(min_value=-1, max_value=1, max_denominator=1000).filter(bool))
@example((F(1, 2), 1), (7, 37), F(1, 100))
@example((F(1, 2), 1), (1, 0), F(-1, 3))
def test_uniform_report_of_a_bumped_cpf_equals_the_oracle(params, target, bump):
    # a bumped value moves the deletion sums of exactly the codes it
    # deletes to: a wrong deletion index moves the witness
    base = _stationary(*params)
    n, index = target
    parts = enumerate_compositions(n)[index].parts
    cpf = Cpf("bumped", lambda c: base(c) + (bump if c.parts == parts else 0))
    report = check_uniform_consistency(cpf, 7)
    assert not report.passed
    assert str(report) == str(check_oracle.check_uniform_consistency(cpf, 7))
