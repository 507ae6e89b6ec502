"""Property test of the independence certificate against the element-path
oracle, with its memos emptied and with them warm.

It runs only where hypothesis is installed; the seeded oracle comparisons
in ``test_independence.py`` cover the same ground without it.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

import cohdual.independence as independence  # noqa: E402
from cohdual.algebra import Element, ModuleShape, TruncationBox  # noqa: E402
from cohdual.fields import RATIONAL, Fp, PrimeField  # noqa: E402
from cohdual.independence import InconclusiveWindowError, independence_certificate  # noqa: E402
from conftest import oracle_certificate, oracle_required_lmax  # noqa: E402

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True,
                    phases=(Phase.explicit, Phase.generate))

S2 = ModuleShape.series_shape(2)
BOX = TruncationBox((3, 3))
FIELDS = {
    "rational": (RATIONAL, st.fractions(min_value=-5, max_value=5, max_denominator=4)
                 .filter(bool)),
    "gf32003": (PrimeField(32003), st.integers(1, 32002).map(lambda v: Fp(v, 32003))),
}


def _combinations(coefficients):
    """1-4 coefficient polynomials of up to 3 terms with exponents up to 3,
    the last one nonzero."""
    terms = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coefficients,
                            max_size=3)
    return st.tuples(st.lists(terms, max_size=3), terms.filter(bool)).map(
        lambda drawn: (*drawn[0], drawn[1]))


def _memos_cleared():
    for memo in (independence._tails, independence._tail_start, independence._entries):
        memo.cache_clear()


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_certificates_equal_the_oracle_cold_and_warm(kind):
    """Each certificate equals ``conftest.oracle_certificate`` (m0, a, b and
    the whole profile, with its tail from tail_start on), first from what
    the earlier examples left in the memos and then with every memo
    emptied; an inconclusive window names the scan's least window both
    times."""
    field, coefficients = FIELDS[kind]

    @PROPERTY
    @given(term_maps=_combinations(coefficients), lmax=st.integers(3, 40))
    def check(term_maps, lmax):
        r_list = tuple(Element.from_terms(S2, BOX, terms, field=field) for terms in term_maps)
        for warmth in ("warm", "cold"):
            if warmth == "cold":
                _memos_cleared()
            try:
                cert = independence_certificate(r_list, lmax)
            except InconclusiveWindowError as exc:
                assert exc.required_lmax == oracle_required_lmax(r_list), warmth
                continue
            m0, a, b, profile, tail = oracle_certificate(r_list, lmax)
            assert (cert.m0, cert.a, cert.b, cert.delta) == (m0, a, b, profile), warmth
            assert tail <= cert.tail_start <= lmax - 2, warmth

    check()
