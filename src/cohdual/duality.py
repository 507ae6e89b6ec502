"""Matlis pairing, torsion functors, and the regular-sequence check.

The dual of a shaped module flips every role.  Pairing an element of the
dual shape with an element of the original shape multiplies them into the
all-inverse module (the injective hull): monomial exponents add, and any
result with a positive coordinate dies by contraction.  Evaluating at the
socle (the coefficient at exponent zero) turns the pairing into a scalar,
and on box-monomial bases that scalar pairing is a permutation matrix,
which :func:`pairing_perfection_check` verifies directly.

The remaining helpers answer support questions (is an element killed by a
power of a coordinate ideal; is the whole shape torsion for it) and verify
that the first i variables act as a regular sequence on the dual shape,
with the final quotient landing back in an all-inverse module.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import add, eq
from typing import NamedTuple

from .algebra import (
    INVERSE,
    Element,
    ModuleShape,
    TruncationBox,
    _check_field,
    _element,
    _product,
    _window,
    monomial,
    ring_act,
)
from .fields import RATIONAL

GAMMA_FULL = "full"
GAMMA_ZERO = "zero"


@lru_cache(maxsize=256)
def _pairing_frame(d_bounds, m_bounds, box):
    """Shape, box and window of a pairing's output; pairings of the same
    boxes share them.  The box defaults to the sum of the input boxes."""
    if box is None:
        box = TruncationBox(tuple(map(add, d_bounds, m_bounds)))
    elif box.nvars != len(d_bounds):
        raise ValueError("output box has the wrong variable count")
    shape = ModuleShape.inverse_shape(len(d_bounds))
    return shape, box, _window(shape.roles, box.bounds)


def matlis_pair(d: Element, m: Element,
                out_box: TruncationBox | None = None) -> Element:
    """Multiply an element of the dual shape against one of the shape.

    Exponent vectors add; a term with any positive coordinate is annihilated
    (exactly).  The result is all-inverse, over the operands' common field.
    By default the output box is the componentwise sum of the input boxes,
    which holds every surviving product, so exact inputs give an exact
    output; a narrower ``out_box`` may drop terms and then clears the flag.
    """
    # roles are SERIES or INVERSE, so dual shapes are those that differ in every role
    if len(d.shape.roles) != len(m.shape.roles) or any(map(eq, d.shape.roles, m.shape.roles)):
        raise ValueError("pairing requires mutually dual shapes")
    _check_field(d, m)
    shape, box, (lo, hi, kill) = _pairing_frame(d.box.bounds, m.box.bounds, out_box)
    terms, dropped = _product(d.terms, m.terms, lo, hi, kill)
    return _element((shape, box, m.field, terms, d.exact and m.exact and not dropped))


def socle_functional(d: Element, m: Element):
    """Scalar pairing: the coefficient of the pairing at exponent zero."""
    paired = matlis_pair(d, m)
    return paired.coefficient((0,) * d.shape.nvars)


def _box_monomial_exponents(shape: ModuleShape, box: TruncationBox):
    lo, hi, _ = _window(shape.roles, box.bounds)
    return product(*(range(low, high + 1) for low, high in zip(lo, hi)))


class PairingReport(NamedTuple):
    """Outcome of pairing the two box-monomial bases against each other."""

    n: int
    i: int
    bound: int
    pair_count: int
    permutation: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    passed: bool


def pairing_perfection_check(n: int, i: int, bound: int) -> PairingReport:
    """Pair every dual-shape box monomial with every shape box monomial.

    The socle pairing must be 1 exactly when the exponents sum to zero and 0
    otherwise, i.e. the matrix of the pairing is a permutation matrix.
    Pairing with X^d sends each X^m to the single exponent d + m, and
    distinct m to distinct exponents, so each dual monomial is paired once
    with the sum of the box monomials: the product must be exact and hold
    exactly the terms (d + m, 1) with d + m <= 0, which says more than
    reading each pair's socle coefficient.  ``pair_count`` counts the
    (d, m) pairs so decided, and ``permutation`` lists the matched ones
    with d in order, then m.
    """
    shape = ModuleShape.cohomology_shape(n, i)
    dual = shape.dual()
    box = TruncationBox.uniform(n, bound)
    zero = (0,) * n
    permutation = []
    passed = True
    modules = tuple(_box_monomial_exponents(shape, box))  # in lexicographic order
    duals = tuple(_box_monomial_exponents(dual, box))
    region = Element(shape, box, RATIONAL, tuple((me, 1) for me in modules))
    for de in duals:
        sums = [(me, tuple(map(add, de, me))) for me in modules]
        permutation += [(de, me) for me, s in sums if s == zero]
        paired = matlis_pair(monomial(dual, box, de), region)
        # shifting by de keeps the order, so these are the canonical terms
        expected = tuple((s, 1) for _, s in sums if max(s) <= 0)
        if paired.terms != expected or not paired.exact:
            passed = False
    return PairingReport(n, i, bound, len(duals) * len(modules), tuple(permutation), passed)


def tensor_surjectivity_witness(target: tuple[int, ...], n: int, i: int
                                ) -> tuple[Element, Element]:
    """Split an all-inverse monomial into a (shape, dual-shape) monomial pair.

    The first i coordinates of the target go to the shape factor and the
    rest to the dual factor; pairing the two returns exactly the target
    monomial, which exhibits the pairing map as surjective on monomials.
    Returns ``(m, d)`` with m in the shaped module and d in its dual.
    """
    target = tuple(target)
    if len(target) != n:
        raise ValueError(f"target {target} has wrong length for n={n}")
    if any(e > 0 for e in target):
        raise ValueError(f"target {target} is not an all-inverse monomial")
    shape = ModuleShape.cohomology_shape(n, i)
    m_exp = tuple(target[j] if j < i else 0 for j in range(n))
    d_exp = tuple(0 if j < i else target[j] for j in range(n))
    box = TruncationBox(tuple(abs(e) for e in target))
    m = monomial(shape, box, m_exp)
    d = monomial(shape.dual(), box, d_exp)
    return m, d


def is_torsion(e: Element, gens: tuple[int, ...]) -> bool:
    """Is some power of the ideal generated by the listed variables zero on e?

    A nonzero monomial dies under a high enough power of an inverse-role
    variable and under no power of a series-role one (it only leaves the
    box, which certifies nothing), so a nonzero e is torsion exactly when
    the whole shape is: when every generator has inverse role.
    """
    if not gens:
        raise ValueError("need at least one generator index")
    return gamma_of_shape(e.shape, gens) == GAMMA_FULL or e.is_zero


def gamma_of_shape(shape: ModuleShape, gens: tuple[int, ...]) -> str:
    """Torsion functor of a coordinate ideal on a whole shaped module.

    Every monomial is killed by a high power of an inverse-role variable
    and by no power of a series-role one, so the answer is all-or-nothing:
    ``"full"`` when every generator has inverse role (for the empty ideal
    the functor is the identity, also full), else ``"zero"``.
    """
    gens = tuple(sorted(set(gens)))
    if any(not 0 <= g < shape.nvars for g in gens):
        raise ValueError(f"generator index out of range: {gens}")
    return GAMMA_FULL if all(shape.role(g) == INVERSE for g in gens) else GAMMA_ZERO


class RegularityStep(NamedTuple):
    variable: int
    domain_dim: int
    kernel_dim: int


class RegularityReport(NamedTuple):
    n: int
    i: int
    bound: int
    steps: tuple[RegularityStep, ...]
    final_roles: tuple[str, ...]
    final_dim: int
    final_nonzero: bool
    passed: bool


def regular_on_dual_check(n: int, i: int, bound: int) -> RegularityReport:
    """Check the first i variables form a regular sequence on the dual shape.

    Step j acts by the j-th variable on the truncated quotient of the dual
    shape by the previous variables and certifies injectivity as a vanishing
    kernel, computed by :func:`cohdual.linalg.sparse_column_rank` on the
    sub-box where the shift loses no information (series exponent at most
    bound - 1; ``ValueError`` unless bound >= 1, as that sub-box is empty).  The
    image together with the monomials of exponent 0 in that variable must
    span the whole box, so the quotient is exactly the shape with the
    variable dropped; its dimension is measured, not assumed.  After i
    steps the quotient must be the all-inverse shape on the remaining
    variables, nonzero because it contains the socle monomial.
    """
    shape = ModuleShape.cohomology_shape(n, i).dual()  # refuses i outside 1..n first
    # imported here, so that pairings and torsion supports never load linalg
    from .linalg import sparse_column_rank

    if bound < 1:
        raise ValueError("the box must leave room for the action; need bound >= 1")
    box = TruncationBox.uniform(n, bound)
    steps = []
    ok = True
    for step in range(i):
        nvars = shape.nvars
        targets = list(_box_monomial_exponents(shape, box))
        target_index = {t: k for k, t in enumerate(targets)}
        xj = monomial(ModuleShape.series_shape(nvars),
                      TruncationBox.uniform(nvars, 1),
                      (1,) + (0,) * (nvars - 1))
        units = [{k: 1} for k, exps in enumerate(targets) if exps[0] == 0]
        # box monomials by construction, so Element skips the validation
        images = (ring_act(xj, Element(shape, box, RATIONAL, ((exps, 1),)))
                  for exps in targets if exps[0] < bound)
        columns = [{target_index[e]: c for e, c in im.terms} for im in images]
        domain = len(columns)
        # image and units are len(targets) columns together, so full rank
        # also makes the image columns independent: the kernel is zero
        if sparse_column_rank(units + columns) == len(targets):
            kernel = 0
        else:
            kernel = len(columns) - sparse_column_rank(columns)
            ok = False
        final_dim = len(targets) - (domain - kernel)  # of this step's quotient
        steps.append(RegularityStep(step, domain, kernel))
        # pass to the quotient by the variable just tested
        shape = shape.drop(0)
        box = box.drop(0)
    final_roles = shape.roles
    final_nonzero = final_dim > 0
    if any(r != INVERSE for r in final_roles) or not final_nonzero:
        ok = False
    return RegularityReport(n, i, bound, tuple(steps), final_roles,
                            final_dim, final_nonzero, ok)
