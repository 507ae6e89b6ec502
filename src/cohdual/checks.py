"""Named verification suites over the whole package.

Each check function runs many instances of one mathematical claim and
returns a single :class:`CheckLine` with a pass verdict and a short
detail.  Randomized checks draw everything from one seeded generator, so
a run is reproducible from (suite, seed).  The algebra line is decided
on the monomial basis of its region, with seeded draws over Q, GF(7) and
GF(32003) for the linearity that makes that a proof.  Each law sends
distinct monomials to distinct exponents, so one kernel call on the sum
of a region's monomials decides them all; the perfection line pairs each
dual monomial with the sum of the box monomials the same way.  Their
``instances`` still count the monomials (and pairs) decided, not the
calls.  The independence line compares each certificate, whose tail
comes from a closed form, with the combination formed as elements, and
the balance line also pairs into a narrow box, so a lower wall of the
product kernel is seen; it samples the pairing's linearity in m in both
boxes.  The sizes below are chosen to finish comfortably fast while
still sweeping every shape and position the finite windows can reach.

Kernel outputs are compared one way in every suite: each must lie in its
operand's frame (shape, box and field) before a sum or another kernel
meets it, and one outside, or a d whose profile cannot be read, FAILs the
line, so a broken component is never refused as bad input.  A law also
needs every side exact (:func:`_holds`); a linearity comparison, equal flags.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import partial
from itertools import product
from typing import NamedTuple

from .algebra import (
    INVERSE,
    SERIES,
    Element,
    ModuleShape,
    TruncationBox,
    derivation_act,
    linear_combine,
    matlis_pair,
    monomial,
    ring_act,
)
from .cech import equivariance_mismatches, verify_realization
from .duality import (
    pairing_perfection_check,
    regular_on_dual_check,
    tensor_surjectivity_witness,
)
from .exprio import (
    element_from_document,
    element_to_document,
    from_document,
    parse_element,
    serialize_element,
    to_document,
    write_document,
)
from .fields import RATIONAL, PrimeField
from .independence import (
    D_SHAPE,
    InconclusiveWindowError,
    auto_truncation,
    delta,
    fit_shift_form,
    independence_certificate,
    make_d,
    shift_equiv_window,
)

DEFAULT_SEED = 1729


class CheckLine(NamedTuple):
    """Verdict of one named check over some number of instances."""

    name: str
    instances: int
    passed: bool
    detail: str = ""


class CheckReport(NamedTuple):
    suite: str
    seed: int
    lines: tuple[CheckLine, ...]
    passed: bool


def _positions(max_n: int):
    """Every position (n, i) with 1 <= i <= n <= max_n, n outermost."""
    return ((n, i) for n in range(1, max_n + 1) for i in range(1, n + 1))


def _random_element(rng, shape, box, margin=0, max_terms=4, coeffs=(1, -1, 2, -2, 3)):
    """Random element whose exponents stay margin steps inside the box."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        exps = [(1 if role == SERIES else -1) * rng.randint(0, max(bound - margin, 0))
                for role, bound in zip(shape.roles, box.bounds)]
        terms.append((exps, rng.choice(coeffs)))
    return Element.from_terms(shape, box, terms)


def realization_sweep(max_n: int = 4, window: int = 4) -> CheckLine:
    """Window sweeps in up to max_n variables for every position.

    Away from the distinguished position every slice must vanish; at the
    position the slice is one-dimensional exactly on the predicted orthant
    and zero elsewhere.  The variable action on the rank-one slices must
    match the unit shifts (checked on a smaller window).
    """
    instances = 0
    for n, i in _positions(max_n):
        report = verify_realization(n, i, window)
        instances += len(report.table.entries)
        if not report.passed:
            first = report.mismatches[0]
            return CheckLine("realization-window-sweep", instances, False,
                             f"n={n} i={i}: dims {first[1]} at degree {first[0]}")
    for n, i in _positions(min(max_n, 3)):
        mismatches = equivariance_mismatches(n, i, 2)
        instances += (2 * 2 + 1) ** n
        if mismatches:
            return CheckLine("realization-window-sweep", instances, False,
                             f"n={n} i={i}: shift action mismatch {mismatches[0]}")
    return CheckLine("realization-window-sweep", instances, True)


def _d_profile(power: int, lmax: int):
    """delta of make_d(power, lmax); where delta would refuse that d or its
    profile stop before lmax, the ``power p:`` detail that FAILs the line."""
    d = make_d(power, lmax)
    if d.shape == D_SHAPE and d.exact and d.box.bounds[0] >= lmax:
        return delta(d)
    return f"power {power}: d lossy, outside the dual shape or short of X-degree {lmax}"


def delta_formula(max_power: int = 4, lmax: int = 30) -> CheckLine:
    """The profile of each truncated d equals minus the power of the degree."""
    instances = 0
    for power in range(1, max_power + 1):
        profile = _d_profile(power, lmax)
        if type(profile) is str:
            return CheckLine("profile-of-the-d-family", instances, False, profile)
        for l in range(lmax + 1):
            instances += 1
            if profile.value(l) != -(l ** power):
                return CheckLine(
                    "profile-of-the-d-family", instances, False,
                    f"power {power}, degree {l}: got {profile.value(l)}")
    return CheckLine("profile-of-the-d-family", instances, True)


def _random_combination(rng) -> tuple[Element, ...]:
    """Three random polynomial slots, each empty with small probability."""
    shape = ModuleShape.series_shape(2)
    box = TruncationBox.uniform(2, 3)
    while True:
        slots = [Element.zero(shape, box, RATIONAL) if rng.random() < 0.15 else
                 _random_element(rng, shape, box, max_terms=3, coeffs=(1, -1, 2, -2))
                 for _ in range(3)]
        if not all(r.is_zero for r in slots):
            return tuple(slots)


def independence_trials(seed: int = DEFAULT_SEED, trials: int = 200,
                        lmax: int = 30) -> CheckLine:
    """Certify random combinations and cross-check what the tail reveals.

    Each certificate's whole profile must equal that of sum r_j . d_j formed
    as elements (``ring_act`` on ``make_d`` in :func:`auto_truncation`'s box,
    then ``linear_combine``), exact, each d_j and product in that frame before
    the next kernel meets it.  m0, the box and the shifts must agree with the
    line's own reading of the nonzero r_j; h and g, in the top one's frame
    and g in Y alone, must rebuild it (:func:`_holds`), and refitting the
    tail, its start in 0..lmax - 2, must recover the shifts (for m0 = 1, their
    sum).  Well over 95 percent should certify; short windows are not failures.
    """
    rng = random.Random(seed)
    certified = 0
    bad = []
    for trial in range(trials):
        r_list = _random_combination(rng)
        try:
            cert = independence_certificate(r_list, lmax)
        except InconclusiveWindowError:
            continue
        certified += 1
        live = [(j, r) for j, r in enumerate(r_list, start=1) if not r.is_zero]
        m0, top = live[-1]  # the top index and coefficient, read once
        a, b = min(e for e, _ in top.terms)  # the least X-degree, then its least Y-degree
        frame, dec = (D_SHAPE, auto_truncation(r_list, lmax), top.field), cert.decomposition
        # a d_j outside the frame meets no kernel, and its product is missing
        parts = [ring_act(r, d) for j, r in live if (d := make_d(j, lmax, frame[1]))[:3] == frame]
        s = linear_combine((1, p) for p in parts) if len(parts) == len(live) and all(
            p[:3] == frame for p in parts) else None
        ok = s is not None and s[:3] == frame and s.exact and delta(s, (0, lmax)) == cert.delta
        ok = ok and (cert.m0, cert.a, cert.b, cert.nonzero, dec.a, dec.b) == (m0, a, b, True, a, b)
        ok = ok and dec.h[:3] == dec.g[:3] == top[:3] and all(e[0] == 0 for e, _ in dec.g.terms)
        ok = ok and _holds(top[:3], top, *(  # rational, as every combination drawn here
            ring_act(monomial(top.shape, TruncationBox((k, 0)), (k, 0)), part)
            for k, part in ((a + 1, dec.h), (a, dec.g))))
        ok = ok and cert.box == frame[1] and 0 <= cert.tail_start <= lmax - 2  # refittable
        fit = fit_shift_form(cert.delta, m0, cert.tail_start) if ok else None
        ok = fit is not None and (fit == (a, b) or m0 == 1 and sum(fit) == a + b)
        if not ok:
            bad.append(trial)
    rate_ok = certified >= 0.95 * trials
    detail = f"{certified}/{trials} certified"
    if bad:
        detail += f"; cross-checks failed on trials {bad[:3]}"
    return CheckLine("independence-random-combinations", trials,
                     rate_ok and not bad, detail)


def balance_trials(seed: int = DEFAULT_SEED, trials: int = 500) -> CheckLine:
    """Acting on either slot of the pairing, or on its value, all agree.

    Elements are sampled with enough headroom that every product stays
    exact, so the three-way equality is tested on the nose, kills included.
    Pairing into the narrow box of bound 1 must give the default pairing's
    terms inside it, and must be inexact whenever one lies outside.  In
    both boxes the pairing must be linear in m, ``exact`` included: the
    perfection line pairs with a sum of monomials and relies on it.  A
    failure of that linearity names itself, and its box, in the detail.
    """
    rng = random.Random(seed)
    for trial in range(trials):
        n = rng.randint(1, 3)
        i = rng.randint(1, n)
        shape = ModuleShape.cohomology_shape(n, i)
        box = TruncationBox.uniform(n, rng.randint(3, 5))
        m = _random_element(rng, shape, box, margin=2)
        d = _random_element(rng, shape.dual(), box, margin=2)
        r = _random_element(rng, ModuleShape.series_shape(n),
                            TruncationBox.uniform(n, 2))
        where = f"trial {trial}: n={n} i={i}"
        rd, rm, paired = ring_act(r, d), ring_act(r, m), matlis_pair(d, m)
        if rd[:3] != d[:3] or rm[:3] != m[:3] or paired.field != m.field:
            return CheckLine("pairing-balance", trial + 1, False, where)
        left, right, outside = matlis_pair(rd, m), matlis_pair(d, rm), ring_act(r, paired)
        narrow_box = TruncationBox.uniform(n, 1)
        narrow = matlis_pair(d, m, narrow_box)
        inside = tuple(t for t in paired.terms if min(t[0]) >= -1)
        good = (left == right == outside
                and left.exact and right.exact and outside.exact
                and narrow.terms == inside and not (narrow.exact and inside != paired.terms))
        if not good:
            return CheckLine("pairing-balance", trial + 1, False, where)
        if not _combines(paired, partial(matlis_pair, d), m):
            return CheckLine("pairing-balance", trial + 1, False,
                             f"{where}: pairing not linear in m")
        if not _combines(narrow, lambda x: matlis_pair(d, x, narrow_box), m):
            return CheckLine("pairing-balance", trial + 1, False,
                             f"{where}: pairing not linear in m (narrow box)")
    return CheckLine("pairing-balance", trials, True)


def _combines(whole, act, m) -> bool:
    """Whether whole, act(m), is with its ``exact`` flag the combination of
    act on each of m's monomials, taken with the field's one as coefficient
    (the empty combination, for m = 0, is zero and exact).  An output over
    another field than m's, or in another frame than whole's, is a broken
    kernel, so it is False rather than linear_combine's refusal."""
    one = m.field.one
    parts = [(c, act(Element(m.shape, m.box, m.field, ((e, one),)))) for e, c in m.terms]
    frame = (*whole[:2], m.field)
    if any(out[:3] != frame for out in [whole, *(p for _, p in parts)]):
        return False
    if not parts:
        return whole.is_zero and whole.exact
    summed = linear_combine(parts)
    return whole == summed and whole.exact == summed.exact


def _holds(frame, lhs, *rhs) -> bool:
    """Whether every side lies in frame and is exact, and lhs is the sum of
    rhs; the sides are added only once they share the frame."""
    return (all(side[:3] == frame and side.exact for side in (lhs, *rhs))
            and lhs == sum(rhs[1:], rhs[0]))


def _broken_variable(m, variables, pairs):
    """The first j at which D_j breaks, exactly, the Weyl law on m and X_j
    (``variables[j]``) or the product rule on m and some (r, [D_0(r), ...])
    of pairs; None when none does.  Each law is decided by :func:`_holds`
    in m's frame, so an output over another shape, box or field breaks j;
    a D_j(m) or D_j(r) outside its operand's frame breaks j before a
    product meets it."""
    frame = m[:3]
    dms = [derivation_act(j, m) for j in range(len(variables))]
    for j, (x, dm) in enumerate(zip(variables, dms)):
        if dm[:3] != frame or not _holds(
                frame, derivation_act(j, ring_act(x, m)), ring_act(x, dm), m):
            return j
    for r, drs in pairs:
        rm = ring_act(r, m)
        for j, (dr, dm) in enumerate(zip(drs, dms)):
            if dr[:3] != r[:3] or not _holds(
                    frame, derivation_act(j, rm), ring_act(dr, m), ring_act(r, dm)):
                return j
    return None


def _field_draw(rng, field, shape, box, exps, full) -> Element:
    """Ratios over field (over Q mostly with non-unit denominators) on every
    monomial of exps when full, else on one to four of them."""
    return Element.from_terms(shape, box, [
        (e, field.from_int(rng.choice((1, -1)) * rng.randint(1, 6))
         / field.from_int(rng.randint(2, 6)))
        for e in (exps if full else rng.sample(exps, rng.randint(1, min(4, len(exps)))))])


def leibniz_weyl_trials(seed: int = DEFAULT_SEED, per_config: int = 2) -> CheckLine:
    """Product rule and the commutator with the matching variable, exactly.

    Both sides of both laws are linear in each argument and ``exact`` is
    the AND of the per-product drops, so the laws are decided on the
    monomial basis: for every role assignment in up to three variables,
    every m inside margin 4 of box 6, every ring monomial r of box 2 and
    every variable.  For a given r and j, both sides of the Leibniz law put
    X^m at the single exponent m + r - e_j (or kill it), and both sides of
    the Weyl law put it at m; these maps are injective in m, so the parts
    of distinct m never meet or cancel, and each law holds exactly on M,
    the sum of the region's monomials with coefficient 1, if and only if it
    holds on every monomial.  So each role assignment's region is decided
    by one call on M.  That proves the laws on the whole region if the
    kernels are linear over each field: so the seed draws per_config (r, m)
    per role assignment over each of Q, GF(7) and GF(32003), checked on
    both laws, on ring_act's linearity in m and on each derivation's
    linearity, plus one full-support pair per field, under a drawn role
    assignment, for each n whose r.m forms at least 64 products.

    ``instances`` counts the (m, r, j) triples and (m, j) pairs of the
    regions, n * 3^n * (1 + 3^n) per role assignment, plus one per draw.
    A failure in a region counts the whole region.
    """
    rng = random.Random(seed)
    instances = 0
    for n in range(1, 4):
        ring_shape, ring_box = ModuleShape.series_shape(n), TruncationBox.uniform(n, 2)
        variables = {field: [monomial(ring_shape, TruncationBox.uniform(n, 1),
                                      tuple(1 if k == j else 0 for k in range(n)),
                                      field.coerce(1)) for j in range(n)]
                     for field in (RATIONAL, PrimeField(7), PrimeField(32003))}
        r_exps = list(product(range(3), repeat=n))
        rs = [(r, [derivation_act(j, r) for j in range(n)])
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
                for k in range(per_config + (roles == full)):
                    instances += 1
                    r = _field_draw(rng, field, ring_shape, ring_box, r_exps, k == per_config)
                    m = _field_draw(rng, field, shape, box, m_exps, k == per_config)
                    if not _combines(ring_act(r, m), partial(ring_act, r), m):
                        return failed(f"ring action not linear in m over {field.descriptor}")
                    for j in range(n):
                        if not _combines(derivation_act(j, m), partial(derivation_act, j), m):
                            return failed(f"derivation {j} not linear over {field.descriptor}")
                    pair = (r, [derivation_act(j, r) for j in range(n)])
                    j = _broken_variable(m, xs, [pair])
                    if j is not None:
                        return failed(f"variable {j} over {field.descriptor}")
            # the Weyl pairs and Leibniz triples of every m at once, on their sum
            instances += len(m_exps) * n * (1 + len(rs))
            region = Element(shape, box, RATIONAL, tuple(sorted((e, 1) for e in m_exps)))
            j = _broken_variable(region, variables[RATIONAL], rs)
            if j is not None:
                return failed(f"variable {j}")
    return CheckLine("leibniz-and-weyl", instances, True)


def separation_pairs(max_power: int = 4, lmax: int = 14,
                     search_bound: int = 5) -> CheckLine:
    """Profiles of distinct powers admit no shift witness; equal ones do."""
    profiles = {p: _d_profile(p, lmax) for p in range(1, max_power + 1)}
    if broken := [profile for profile in profiles.values() if type(profile) is str]:
        return CheckLine("profile-separation", 0, False, broken[0])
    instances = 0
    for p, q in product(profiles, repeat=2):
        instances += 1
        result = shift_equiv_window(profiles[p], profiles[q], search_bound)
        if p == q and result != ("witness", (0, 0, 0)):
            return CheckLine("profile-separation", instances, False,
                             f"power {p} not equivalent to itself")
        if p != q and result.status != "none":
            return CheckLine("profile-separation", instances, False,
                             f"powers {p} and {q}: {result.status}")
    return CheckLine("profile-separation", instances, True)


def roundtrip_trials(seed: int = DEFAULT_SEED, trials: int = 1000) -> CheckLine:
    """Text and document forms reproduce the element, over both fields."""
    rng = random.Random(seed)
    gf7 = PrimeField(7)
    for trial in range(trials):
        n = rng.randint(1, 4)
        shape = ModuleShape(tuple(rng.choice((SERIES, INVERSE)) for _ in range(n)))
        box = TruncationBox(tuple(rng.randint(0, 6) for _ in range(n)))
        field = rng.choice((RATIONAL, RATIONAL, gf7))
        if field is RATIONAL:
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(4)]
        else:
            coeffs = [gf7.from_int(rng.randint(0, 6)) for _ in range(4)]
        if rng.random() < 0.05:
            e = Element.zero(shape, box, field)
        else:
            e = _random_element(rng, shape, box, coeffs=coeffs)
        if rng.random() < 0.2:
            e = e._replace(exact=False)
        text = serialize_element(e)
        doc = element_to_document(e)
        try:  # a reader that refuses the writer's own output fails the trial
            reparsed = parse_element(text, shape, box, field)
            restored = element_from_document(doc)
        except ValueError:
            reparsed = restored = None
        good = (reparsed == e and restored == e
                and restored.exact == e.exact
                and write_document(element_to_document(restored)) == write_document(doc))
        if not good:
            return CheckLine("expression-document-roundtrip", trial + 1, False,
                             f"trial {trial}: {text!r}")
    # reports from the same seed must come out byte-identical, and reload
    probes = []
    for _ in range(2):
        line = independence_trials(seed=5, trials=10, lmax=12)
        report = CheckReport("probe", 5, (line,), line.passed)
        probes.append(write_document(to_document(report)))
    reloaded = write_document(to_document(from_document(json.loads(probes[0]))))
    if not probes[0] == probes[1] == reloaded:
        return CheckLine("expression-document-roundtrip", trials + 2, False,
                         "fixed-seed report bytes differ between runs or on reload")
    return CheckLine("expression-document-roundtrip", trials + 2, True)


def perfection_and_surjectivity(max_n: int = 3, bound: int = 3) -> CheckLine:
    """The box pairing is a permutation matrix and every socle monomial splits."""
    instances = 0
    for n, i in _positions(max_n):
        report = pairing_perfection_check(n, i, bound)
        instances += report.pair_count
        if not report.passed or len(report.permutation) != (bound + 1) ** n:
            return CheckLine("pairing-perfection-and-surjectivity", instances, False,
                             f"n={n} i={i}: {len(report.permutation)} matches")
        for target in product(range(-2, 1), repeat=n):
            instances += 1
            m, d = tensor_surjectivity_witness(target, n, i)
            paired = matlis_pair(d, m)
            expected = monomial(ModuleShape.inverse_shape(n), d.box + m.box, target)
            if paired != expected or not paired.exact:
                return CheckLine("pairing-perfection-and-surjectivity", instances, False,
                                 f"n={n} i={i}: target {target} not reached")
    return CheckLine("pairing-perfection-and-surjectivity", instances, True)


def regularity_sweep(max_n: int = 4, bound: int = 4) -> CheckLine:
    """The first i variables act as a regular sequence on every dual shape."""
    instances = 0
    for n, i in _positions(max_n):
        report = regular_on_dual_check(n, i, bound)
        instances += sum(step.domain_dim for step in report.steps)
        if not report.passed:
            kernels = [step.kernel_dim for step in report.steps]
            return CheckLine("regular-sequence-on-dual", instances, False,
                             f"n={n} i={i}: kernels {kernels}, final dim {report.final_dim}")
    return CheckLine("regular-sequence-on-dual", instances, True)


_CRITERIA: tuple[tuple[object, bool], ...] = (
    (realization_sweep, False),
    (delta_formula, False),
    (independence_trials, True),
    (perfection_and_surjectivity, False),
    (balance_trials, True),
    (regularity_sweep, False),
    (leibniz_weyl_trials, True),
    (separation_pairs, False),
    (roundtrip_trials, True),
)

SUITES = {
    "algebra": (leibniz_weyl_trials,),
    "cech": (realization_sweep,),
    "duality": (balance_trials, perfection_and_surjectivity, regularity_sweep),
    "independence": (delta_formula, independence_trials, separation_pairs),
    "io": (roundtrip_trials,),
}

_SEEDED = {fn for fn, seeded in _CRITERIA if seeded}


def suite_names() -> tuple[str, ...]:
    return tuple(SUITES) + ("all",)


def run_suite(suite: str, seed: int = DEFAULT_SEED) -> CheckReport:
    """Run one named suite (or all of them) and bundle the verdicts."""
    if suite == "all":
        functions = tuple(fn for fn, _ in _CRITERIA)
    elif suite in SUITES:
        functions = SUITES[suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; try one of {suite_names()}")
    lines = tuple(
        fn(seed) if fn in _SEEDED else fn()
        for fn in functions
    )
    return CheckReport(suite, seed, lines, all(line.passed for line in lines))
