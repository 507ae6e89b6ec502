"""The ``certify`` workload: independence certificates at lmax 1000, in process.

The stream alternates between the rationals and GF(32003).  Each
combination has 1 to 4 nonzero coefficient polynomials in two variables,
of total degree at most 4 and with 1 to 5 terms.  After the timed loop,
every certificate is checked against a recomputation on plain dicts and
integers that shares no code with cohdual: the top index m0, the shifts a
and b, and the whole minimal-exponent profile, whose tail must follow
b - (l - a)^m0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import cohdual
from cohdual import Element, Fp, InconclusiveWindowError, ModuleShape, TruncationBox

LMAX = 1000
PRIME = 32003
CELLS = tuple((x, y) for x in range(5) for y in range(5) if x + y <= 4)
NUMERATORS = (-9, -7, -5, -3, -2, -1, 1, 2, 3, 4, 5, 7, 9)


@dataclass(frozen=True)
class Combination:
    prime: int | None  # None over the rationals
    raw: tuple[dict, ...]  # exponents -> int or Fraction, for the oracle
    r_list: tuple[Element, ...]
    command: None = None


def oracle(combo: Combination):
    """(m0, a, b, profile) of sum r_j . d_j computed on plain integers.

    Over the rationals every coefficient is scaled by one common
    denominator, which changes no coefficient from zero to nonzero.
    """
    if combo.prime is None:
        scale = math.lcm(*(Fraction(c).denominator
                           for terms in combo.raw for c in terms.values()))
        raw = [{e: int(Fraction(c) * scale) for e, c in terms.items()}
               for terms in combo.raw]
    else:
        raw = combo.raw
    s: dict[tuple[int, int], int] = {}
    for j, terms in enumerate(raw, start=1):
        ys = [-(l ** j) for l in range(LMAX + 1)]
        for (x, y), c in terms.items():
            for l in range(LMAX + 1 - x):
                e = y + ys[l]
                if e > 0:
                    continue  # killed by contraction on the inverse side
                key = (x + l, e)
                s[key] = s.get(key, 0) + c
    mins: dict[int, int] = {}
    for (x, y), c in s.items():
        if (c % combo.prime if combo.prime else c) and (x not in mins or y < mins[x]):
            mins[x] = y
    m0 = max(j for j, terms in enumerate(raw, start=1) if terms)
    a = min(x for x, _ in raw[m0 - 1])
    b = min(y for x, y in raw[m0 - 1] if x == a)
    return m0, a, b, tuple(mins.get(l) for l in range(LMAX + 1))


class CertifyWorkload:
    in_process = True
    trace_ops = 40

    def __init__(self, ctx):
        self.ctx = ctx
        self.results: list[tuple[Combination, tuple | None, float]] = []

    def generate(self, rng) -> list[Combination]:
        """The stream cycles through every (field, polynomial count, term
        count) in blocks of 40, so each run sees the same mix of sizes and
        the seed picks only exponents and coefficients."""
        shape = ModuleShape.series_shape(2)
        box = TruncationBox((4, 4))
        stream = []
        for k in range(3000):
            prime = PRIME if k % 2 else None
            raw = []
            for _ in range(1 + (k // 2) % 4):
                terms = {}
                for e in rng.sample(CELLS, 1 + (k // 8) % 5):
                    if prime:
                        terms[e] = rng.randint(1, prime - 1)
                    else:
                        terms[e] = Fraction(rng.choice(NUMERATORS), rng.randint(1, 5))
                raw.append(terms)
            r_list = tuple(
                Element.from_terms(shape, box, {e: Fp(c, prime) for e, c in terms.items()}
                                   if prime else terms)
                for terms in raw)
            stream.append(Combination(prime, tuple(raw), r_list))
        return stream

    def prepare(self, phase_dir) -> None:
        pass

    def execute(self, op: Combination, phase_dir, trace_file=None):
        t0 = perf_counter()
        try:
            # looked up on the package each call, so the tracer's wrapper is seen
            result = cohdual.independence_certificate(op.r_list, LMAX)
        except InconclusiveWindowError:
            result = None
        except Exception as exc:  # a crash is a failed operation, not a harness error
            return perf_counter() - t0, f"{type(exc).__name__}: {exc}", False
        seconds = perf_counter() - t0
        if result is not None:  # keep a fingerprint, not the certificate
            result = (result.m0, result.a, result.b, result.tail_start, result.lmax,
                      hash(result.delta.entries))
        self.results.append((op, result, seconds))
        return seconds, None

    def finish(self, outcome) -> None:
        """Check every certificate against the oracle and add the details."""
        decided = 0
        for op, cert, _ in self.results:
            if cert is None:
                continue
            decided += 1
            m0, a, b, profile = oracle(op)
            tail_start = cert[3]
            tail = all(profile[l] == b - (l - a) ** m0 for l in range(tail_start, LMAX + 1))
            if cert != (m0, a, b, tail_start, LMAX, hash(profile)) or not tail:
                outcome.fail(f"certificate disagrees with the oracle: {op.raw}")
        outcome.details["decided_share"] = decided / max(outcome.attempted, 1)
        for label, prime in (("q", None), ("gf", PRIME)):
            times = sorted(s for op, _, s in self.results if op.prime == prime)
            if times:
                outcome.details[f"p50_{label}_ms"] = times[len(times) // 2] * 1000.0
        self.results = []
