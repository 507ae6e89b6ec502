"""Property tests of the product kernel against the plain-dict oracle, and
of the expression round trip.

They run only where hypothesis is installed; the seeded tests in
``test_algebra.py`` and ``test_exprio.py`` cover the same ground without it.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st  # noqa: E402

from cohdual.algebra import (  # noqa: E402
    INVERSE,
    SERIES,
    Element,
    ModuleShape,
    TruncationBox,
    ring_act,
)
from cohdual.duality import matlis_pair  # noqa: E402
from cohdual.exprio import parse_element, serialize_element  # noqa: E402
from cohdual.fields import RATIONAL, Fp, PrimeField  # noqa: E402
from conftest import coefficient_strings, oracle_product  # noqa: E402

# derandomized, so every run draws the same examples; no shrinking, because
# a shrink over elements of a dozen terms runs for minutes
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    phases=(Phase.explicit, Phase.generate))

# per field, the field and a strategy for its coefficients (ints join the field)
COEFFICIENTS = {
    "rational": (RATIONAL, st.fractions(min_value=-9, max_value=9, max_denominator=6)
                 .filter(bool)),
    "prime:7": (PrimeField(7), st.one_of(st.integers(1, 6).map(lambda v: Fp(v, 7)),
                                         st.sampled_from((7, 14, 3, -1)))),
}


@st.composite
def frames(draw):
    """(shape, box, (field, coefficient strategy)) with bounds small or past 2**64."""
    n = draw(st.integers(1, 3))
    roles = tuple(draw(st.sampled_from((SERIES, INVERSE))) for _ in range(n))
    base = draw(st.sampled_from((0, 2 ** 64)))
    bounds = tuple(base + draw(st.integers(1, 6)) for _ in range(n))
    return ModuleShape(roles), TruncationBox(bounds), COEFFICIENTS[draw(st.sampled_from(
        sorted(COEFFICIENTS)))]


@st.composite
def elements(draw, shape, box, coefficients):
    """Up to 12 terms, exponents at 0, 1, the wall or anywhere in between."""
    field, coefficients = coefficients
    terms = []
    for _ in range(draw(st.integers(0, 12))):
        exps = tuple((1 if role == SERIES else -1) * draw(st.one_of(
            st.sampled_from((0, 1, b)), st.integers(0, b)))
            for role, b in zip(shape.roles, box.bounds))
        terms.append((exps, draw(coefficients)))
    return Element.from_terms(shape, box, terms, field=field)


def _matches(out, a, b, roles, bounds):
    """The product agrees with the oracle: terms, coefficient types, order, flag."""
    want_terms, want_exact = oracle_product(a.term_map(), b.term_map(), roles, bounds)
    return (out.term_map() == want_terms
            and coefficient_strings(out.term_map()) == coefficient_strings(want_terms)
            and [e for e, _ in out.terms] == sorted(want_terms)
            and out.exact == want_exact)


@PROPERTY
@given(st.data())
def test_ring_act_matches_oracle_property(data):
    shape, box, coefficients = data.draw(frames())
    n = shape.nvars
    m = data.draw(elements(shape, box, coefficients))
    r = data.draw(elements(ModuleShape.series_shape(n), box, coefficients))
    assert _matches(ring_act(r, m), r, m, shape.roles, box.bounds)


@PROPERTY
@given(st.data())
def test_matlis_pair_matches_oracle_property(data):
    shape, box, coefficients = data.draw(frames())
    m = data.draw(elements(shape, box, coefficients))
    d = data.draw(elements(shape.dual(), box, coefficients))
    narrow = data.draw(st.one_of(st.none(), st.builds(
        TruncationBox, st.tuples(*(st.sampled_from((0, 1, b // 2)) for b in box.bounds)))))
    out_box = narrow or d.box + m.box
    assert _matches(matlis_pair(d, m, narrow), d, m, (INVERSE,) * shape.nvars,
                    out_box.bounds)


@PROPERTY
@given(st.data())
def test_parse_reads_back_what_serialize_wrote_property(data):
    """Over 1 to 4 and 11 variables (where X10 and X11 meet X1), with bounds
    small or past 2**64."""
    n = data.draw(st.sampled_from((1, 2, 3, 4, 11)))
    shape = ModuleShape(tuple(data.draw(st.sampled_from((SERIES, INVERSE))) for _ in range(n)))
    base = data.draw(st.sampled_from((0, 2 ** 64)))
    box = TruncationBox(tuple(base + data.draw(st.integers(1, 6)) for _ in range(n)))
    field, coefficients = COEFFICIENTS[data.draw(st.sampled_from(sorted(COEFFICIENTS)))]
    e = data.draw(elements(shape, box, (field, coefficients)))
    assert parse_element(serialize_element(e), shape, box, field) == e
