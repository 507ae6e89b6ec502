"""Shared helpers for the test suite.

The oracle functions here are deliberately independent reimplementations,
written the slow and obvious way on plain dicts and Fractions, so the
package's sparse paths can be checked against something with no shared
code.  The exceptions are :func:`oracle_certificate`, which keeps the
certificate's older element path (itself checked against
:func:`oracle_product`) as the reference for its column path,
:func:`oracle_realization`, which keeps the realization sweep's older
degree-by-degree loop as the reference for its sign-class sweep,
:func:`oracle_leibniz_weyl_trials` and :func:`oracle_pairing_perfection`,
which keep the per-monomial Leibniz/Weyl sweep and the per-pair perfection
loop as the references for their batched ones, and
:func:`oracle_parse_element`, which keeps the expression parser's first
state machine as the reference for its pattern-matching one.
"""

import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement, product
from operator import add

import cohdual.cech as cech
import cohdual.checks as checks
import cohdual.duality as duality
from cohdual.algebra import (
    INVERSE,
    Element,
    ModuleShape,
    SERIES,
    TruncationBox,
    _window,
    linear_combine,
    monomial,
    ring_act,
)
from cohdual.exprio import ParseError, default_variable_names
from cohdual.fields import RATIONAL, Field, Fp, PrimeField
from cohdual.checks import CheckLine
from cohdual.independence import auto_truncation, delta, make_d


# the oracle's own integer patterns, in ASCII digits as the parser reads them
_INT_RE = re.compile(r"[0-9]+")
_SIGNED_INT_RE = re.compile(r"[+-]?[0-9]+")


def oracle_product(poly_terms, elem_terms, roles, bounds):
    """Multiply a polynomial into a shaped element term by term.

    Returns (terms, exact).  Inverse coordinates that climb past zero are
    annihilated without loss, and that kill wins over any box wall another
    coordinate crosses; otherwise exponents escaping the box on the far side
    are dropped and recorded as a loss of exactness.  A product whose
    coefficient vanishes loses nothing.
    """
    out = {}
    exact = True
    for pe, pc in poly_terms.items():
        for me, mc in elem_terms.items():
            coeff = pc * mc
            if not coeff:
                continue
            exps = tuple(a + b for a, b in zip(pe, me))
            if any(role != SERIES and e > 0 for role, e in zip(roles, exps)):
                continue
            inside = all(0 <= e <= bound if role == SERIES else -bound <= e
                         for role, bound, e in zip(roles, bounds, exps))
            if not inside:
                exact = False
                continue
            out[exps] = out.get(exps, 0) + coeff
    return {e: c for e, c in out.items() if c}, exact


def int_coefficient(rng):
    return rng.choice((1, -1, 2, -2))


def _fraction_coefficient(rng):
    return Fraction(rng.choice((1, -1, 2, -3, 5)), rng.randint(1, 4))


def _mixed_coefficient(rng):
    return rng.choice((int_coefficient, _fraction_coefficient))(rng)


def _gf7_coefficient(rng):
    return Fp(rng.randint(1, 6), 7)


def _gf7_or_int_coefficient(rng):
    """Mostly residues mod 7, sometimes an int, which a GF(7) frame reads
    mod 7: 7 and 14 vanish there."""
    return _gf7_coefficient(rng) if rng.random() < 0.7 else rng.choice((7, 14, 3, -1))


# coefficient draws per field; a product's two operands take one each
COEFFICIENT_KINDS = {
    "rational": (int_coefficient, _fraction_coefficient, _mixed_coefficient),
    "prime:7": (_gf7_coefficient, _gf7_or_int_coefficient),
}
FIELDS = {"rational": RATIONAL, "prime:7": PrimeField(7)}


def coefficient_strings(terms):
    """Exponents to the printed coefficient, so a test sees types as well as values."""
    return {e: str(c) for e, c in terms.items()}


def oracle_min_profile(terms, lo, hi):
    """Per-X-degree minimum of the Y-exponent, None where nothing survives."""
    entries = []
    for l in range(lo, hi + 1):
        ys = [e[1] for e in terms if e[0] == l]
        entries.append(min(ys) if ys else None)
    return tuple(entries)


def oracle_certificate(r_list, lmax):
    """(m0, a, b, profile, tail) of sum r_j . d_j by the element path.

    Each r_j . d_j is an element formed by ``ring_act`` inside the
    certificate's box and the parts are added with ``linear_combine``, so
    every sum is a coefficient object; both kernels are checked against
    :func:`oracle_product` elsewhere.  m0, a and b are read off the top
    coefficient, and tail is the least degree from which the profile
    follows b - (l - a)^m0 up to lmax.  Each d_j is over the field of the
    r_j.
    """
    box = auto_truncation(r_list, lmax)
    s = linear_combine([(1, ring_act(r, make_d(j, lmax, box, r.field)))
                        for j, r in enumerate(r_list, start=1) if not r.is_zero])
    assert s.exact
    profile = delta(s, (0, lmax))
    maps = [r.term_map() for r in r_list]
    m0 = max(j for j, terms in enumerate(maps, start=1) if terms)
    a = min(x for x, _ in maps[m0 - 1])
    b = min(y for x, y in maps[m0 - 1] if x == a)
    tail = lmax + 1
    while tail > 0 and profile.value(tail - 1) == b - (tail - 1 - a) ** m0:
        tail -= 1
    return m0, a, b, profile, tail


def oracle_analysis_inputs(r_list):
    """(m0, a, b, h_margin, lower) read off the term maps: the top index, its
    witness X^a Y^b, the least Y-degree of its higher X-layers (None without
    any) and the (j, least Y-degree) of each nonzero lower r_j, a tuple."""
    maps = [r.term_map() for r in r_list]
    m0 = max(j for j, terms in enumerate(maps, start=1) if terms)
    top = maps[m0 - 1]
    a = min(x for x, _ in top)
    b = min(y for x, y in top if x == a)
    h_margin = min((y for x, y in top if x != a), default=None)
    lower = tuple((j, min(y for _, y in terms))
                  for j, terms in enumerate(maps[: m0 - 1], start=1) if terms)
    return m0, a, b, h_margin, lower


def oracle_dominance(r_list):
    """``(dominated, settled)`` for sum r_j . d_j.

    ``dominated(l)`` writes the certificate's conditions out degree by
    degree: with t = l - a >= 1, the witness term X^a Y^b of the top
    coefficient survives (t^m0 >= b), its higher X-layers stay above it
    (t^m0 - (t-1)^m0 > b - their least Y-degree), and so does every lower
    r_j (t^m0 - l^j > b - its least Y-degree).  Every degree from
    ``settled`` on is dominated, unless m0 = 1 and the higher layers reach
    below b, when none is."""
    m0, a, b, h_margin, lower = oracle_analysis_inputs(r_list)

    def dominated(l):
        t = l - a
        if t < 1 or t ** m0 < b:
            return False
        if h_margin is not None and not t ** m0 - (t - 1) ** m0 > b - h_margin:
            return False
        return all(t ** m0 - l ** j > b - margin for j, margin in lower)

    return dominated, a + max(a + 1, 2 ** (m0 - 1) + b + 1)


def oracle_tail_start(r_list, lmax):
    """The least degree from which every degree up to lmax is dominated,
    found by scanning down from lmax."""
    dominated, _ = oracle_dominance(r_list)
    l = lmax
    while dominated(l):
        l -= 1
    return l + 1


def oracle_required_lmax(r_list, start=2):
    """The least l >= start whose degrees l - 2, l - 1 and l are all
    dominated, found by scanning up; None if there is none."""
    dominated, settled = oracle_dominance(r_list)
    run = 0
    for l in range(start - 2, max(start, settled) + 3):
        run = run + 1 if dominated(l) else 0
        if run >= 3 and l >= start:
            return l
    return None


def oracle_realization(n, i, window):
    """(entries, nonzero_count, passed, mismatches) of the realization sweep,
    looked up and compared one degree at a time."""
    entries = []
    mismatches = []
    nonzero = 0
    for a in product(range(-window, window + 1), repeat=n):
        dims = cech.cech_dims_at_degree(n, i, a)
        entries.append((a, dims))
        expected = tuple(
            (1 if (l == i and cech.realization_support(n, i, a)) else 0)
            for l in range(i + 1)
        )
        if dims != expected:
            mismatches.append((a, dims))
        if dims[i] == 1:
            nonzero += 1
    return tuple(entries), nonzero, not mismatches, tuple(mismatches)


def oracle_leibniz_weyl_trials(seed, per_config=2):
    """The Leibniz/Weyl line with its region swept one monomial m per call,
    each m's Weyl pairs and Leibniz triples counted as it is decided.  The
    kernels are looked up on ``checks`` at call time, so a fault patched
    there reaches both lines; the draws check ring_act's linearity only."""
    rng = random.Random(seed)
    instances = 0
    for n in range(1, 4):
        ring_shape, ring_box = ModuleShape.series_shape(n), TruncationBox.uniform(n, 2)
        variables = {field: [monomial(ring_shape, TruncationBox.uniform(n, 1),
                                      tuple(1 if k == j else 0 for k in range(n)),
                                      field.coerce(1)) for j in range(n)]
                     for field in (RATIONAL, PrimeField(7), PrimeField(32003))}
        r_exps = list(product(range(3), repeat=n))
        rs = [(r, [checks.derivation_act(j, r) for j in range(n)])
              for r in (monomial(ring_shape, ring_box, e) for e in r_exps)]
        assignments = list(product((SERIES, INVERSE), repeat=n))
        full = rng.choice(assignments) if len(rs) ** 2 >= 64 else None
        for roles in assignments:
            shape = ModuleShape(roles)
            box = TruncationBox.uniform(n, 6)
            m_exps = list(product(*(range(3) if role == SERIES else range(0, -3, -1)
                                    for role in roles)))

            def failed(what):
                return CheckLine("leibniz-and-weyl", instances, False, f"roles {roles}, {what}")

            for field, xs in variables.items():
                one = field.coerce(1)
                for k in range(per_config + (roles == full)):
                    instances += 1
                    r = checks._field_draw(rng, field, ring_shape, ring_box, r_exps,
                                           k == per_config)
                    m = checks._field_draw(rng, field, shape, box, m_exps, k == per_config)
                    rm = checks.ring_act(r, m)
                    summed = linear_combine(
                        (c, checks.ring_act(r, Element(shape, box, field, ((e, one),))))
                        for e, c in m.terms)
                    if rm != summed or rm.exact != summed.exact:
                        return failed(f"ring action not linear in m over {field.descriptor}")
                    pair = (r, [checks.derivation_act(j, r) for j in range(n)])
                    j = checks._broken_variable(m, xs, [pair])
                    if j is not None:
                        return failed(f"variable {j} over {field.descriptor}")
            for e in m_exps:  # the Weyl pairs of m, then its Leibniz triples
                instances += n * (1 + len(rs))
                j = checks._broken_variable(monomial(shape, box, e), variables[RATIONAL], rs)
                if j is not None:
                    return failed(f"variable {j}")
    return CheckLine("leibniz-and-weyl", instances, True)


def oracle_pairing_perfection(n, i, bound):
    """(pair_count, permutation, passed) of the perfection check, with every
    dual box monomial paired against every box monomial one call at a time
    and only each product's socle coefficient read (and that a surviving
    product has coefficient 1).  ``duality.matlis_pair`` is looked up at call
    time, so a fault patched there reaches both."""
    shape = ModuleShape.cohomology_shape(n, i)
    dual = shape.dual()
    box = TruncationBox.uniform(n, bound)
    zero = (0,) * n
    pair_count = 0
    permutation = []
    passed = True
    modules = [(me, monomial(shape, box, me))
               for me in duality._box_monomial_exponents(shape, box)]
    for de in duality._box_monomial_exponents(dual, box):
        d = monomial(dual, box, de)
        for me, m in modules:
            paired = duality.matlis_pair(d, m)
            pair_count += 1
            if not paired.is_zero:
                (_, coeff), = paired.terms
                if coeff != 1:
                    passed = False
            value = paired.coefficient(zero)
            matched = tuple(map(add, de, me)) == zero
            if matched:
                permutation.append((de, me))
            if bool(value) != matched or (matched and value != 1):
                passed = False
    return pair_count, tuple(permutation), passed


def oracle_rank(rows):
    """Row-reduce over Fractions and count the pivots."""
    matrix = [[Fraction(x) for x in row] for row in rows]
    if not matrix:
        return 0
    rank = 0
    row = 0
    for col in range(len(matrix[0])):
        pivot = next((r for r in range(row, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        lead = matrix[row][col]
        matrix[row] = [x / lead for x in matrix[row]]
        for r in range(len(matrix)):
            if r != row and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b
                             for a, b in zip(matrix[r], matrix[row])]
        row += 1
        rank += 1
        if row == len(matrix):
            break
    return rank


def oracle_rank_mod(rows, p):
    """Row-reduce over the prime field GF(p) and count the pivots."""
    matrix = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(matrix[0]) if matrix else 0):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inverse = pow(matrix[rank][col], -1, p)
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col] * inverse
                matrix[r] = [(a - factor * b) % p
                             for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def random_sample(rng, shape: ModuleShape, box: TruncationBox,
                  margin: int = 0, max_terms: int = 4,
                  coefficient=int_coefficient, field=None) -> Element:
    """A small random element staying margin steps inside the box.

    ``coefficient(rng)`` draws each coefficient; by default a small int.
    The element is over ``field``, by default the field of the draws.
    """
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = []
        for j in range(shape.nvars):
            reach = max(box.bound(j) - margin, 0)
            e = rng.randint(0, reach)
            exps.append(e if shape.role(j) == SERIES else -e)
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + coefficient(rng)
    return Element.from_terms(shape, box, terms, field=field)


def oracle_is_torsion(e: Element, gens) -> bool:
    """Search for a power of the generators' ideal that kills e.

    Tries v = 1 .. sum of the box bounds + 1 and asks whether every
    degree-v monomial in the generators annihilates e exactly; an empty but
    inexact result only means the terms left the box.  Past that degree
    every such monomial overflows some inverse coordinate, so the search is
    conclusive.
    """
    if e.is_zero:
        return True
    n = e.shape.nvars
    rshape = ModuleShape.series_shape(n)
    for v in range(1, sum(e.box.bounds) + 2):
        rbox = TruncationBox.uniform(n, v)
        for combo in combinations_with_replacement(sorted(set(gens)), v):
            exps = [0] * n
            for g in combo:
                exps[g] += 1
            acted = ring_act(monomial(rshape, rbox, tuple(exps)), e)
            if not (acted.is_zero and acted.exact):
                break
        else:
            return True
    return False


def oracle_parse_element(text: str, shape: ModuleShape, box: TruncationBox,
                  field: Field = RATIONAL) -> Element:
    """The expression parser as it was written first, a closure skipping
    whitespace at every position and a generator matching each factor's
    name: the reference that ``exprio.parse_element`` must agree with on
    the element, and on every error's message and position."""
    if shape.nvars != box.nvars:
        raise ValueError("shape and box disagree on the variable count")
    names = default_variable_names(shape.nvars)
    index = {name: j for j, name in enumerate(names)}
    by_length = sorted(names, key=len, reverse=True)
    n = shape.nvars
    lo, hi, _ = _window(shape.roles, box.bounds)
    size = len(text)

    def skip(p: int) -> int:
        while p < size and text[p].isspace():
            p += 1
        return p

    terms: list[tuple[tuple[int, ...], object]] = []
    pos = skip(0)
    if pos == size:
        raise ParseError("empty expression", pos)
    first = True
    while pos < size:
        sign = 1
        if text[pos] == "+":
            pos = skip(pos + 1)
        elif text[pos] == "-":
            sign = -1
            pos = skip(pos + 1)
        elif not first:
            if "0" <= text[pos] <= "9":
                raise ParseError("a coefficient may only open a term", pos)
            raise ParseError("expected '+' or '-' between terms", pos)
        first = False
        term_pos = pos

        coeff = None
        m = _INT_RE.match(text, pos)
        if m:
            scalar_text = m.group()
            pos = m.end()
            p = skip(pos)
            if p < size and text[p] == "/":
                p = skip(p + 1)
                m2 = _INT_RE.match(text, p)
                if not m2:
                    raise ParseError("expected a denominator after '/'", p)
                scalar_text += "/" + m2.group()
                pos = m2.end()
            try:
                coeff = field.parse_scalar(scalar_text)
            except ValueError as exc:
                raise ParseError(str(exc), term_pos) from None

        exps = [0] * n
        saw_factor = False
        while True:
            p = skip(pos)
            starred = False
            if p < size and text[p] == "*":
                starred = True
                p = skip(p + 1)
            matched = next((nm for nm in by_length if text.startswith(nm, p)), None)
            if matched is None:
                if starred:
                    raise ParseError("expected a variable after '*'", p)
                pos = p
                break
            j = index[matched]
            factor_pos = p
            p += len(matched)
            exponent = 1
            q = skip(p)
            if q < size and text[q] == "^":
                q = skip(q + 1)
                m3 = _SIGNED_INT_RE.match(text, q)
                if not m3:
                    raise ParseError("expected an integer exponent after '^'", q)
                exponent = int(m3.group())
                p = m3.end()
            role = shape.role(j)
            if role == SERIES and exponent < 0:
                raise ParseError(
                    f"series variable {matched} cannot carry a negative exponent",
                    factor_pos)
            if role == INVERSE and exponent > 0:
                raise ParseError(
                    f"inverse variable {matched} cannot carry a positive exponent",
                    factor_pos)
            exps[j] += exponent
            saw_factor = True
            pos = p

        if coeff is None and not saw_factor:
            raise ParseError("expected a term", term_pos)
        if coeff is None:
            coeff = field.one
        for j in range(n):
            if not lo[j] <= exps[j] <= hi[j]:
                raise ParseError(
                    f"exponent {exps[j]} of {names[j]} falls outside the truncation box",
                    term_pos)
        terms.append((tuple(exps), -coeff if sign < 0 else coeff))
        pos = skip(pos)
    return Element.from_terms(shape, box, terms, field=field)
