"""End-to-end acceptance gate.

Each test drives one headline guarantee through the public check
functions with its parameters pinned, prints a single PASS or FAIL line,
and asserts the verdict.  The two checks with a runtime budget measure
it with a monotonic clock.  Everything here is exact arithmetic; there
are no tolerances to tune.
"""

import time

from cohdual.checks import (
    DEFAULT_SEED,
    balance_trials,
    delta_formula,
    independence_trials,
    leibniz_weyl_trials,
    perfection_and_surjectivity,
    realization_sweep,
    regularity_sweep,
    roundtrip_trials,
    separation_pairs,
)


def report(name, line, elapsed=None, budget=None):
    verdict = "PASS" if line.passed else "FAIL"
    detail = f" [{line.detail}]" if line.detail else ""
    timing = f" in {elapsed:.1f}s" if elapsed is not None else ""
    print(f"{verdict} {name}: {line.instances} instances{detail}{timing}")
    assert line.passed, f"{name}: {line.detail or 'check failed'}"
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"


def test_cohomology_realization_window():
    start = time.monotonic()
    line = realization_sweep(max_n=4, window=4)
    elapsed = time.monotonic() - start
    report("cohomology realization", line, elapsed, budget=60.0)


def test_delta_profile_formula():
    report("profile formula", delta_formula(max_power=4, lmax=30))


def test_random_combination_certificates():
    start = time.monotonic()
    line = independence_trials(seed=DEFAULT_SEED, trials=200, lmax=30)
    elapsed = time.monotonic() - start
    report("combination certificates", line, elapsed, budget=120.0)


def test_pairing_perfection_and_surjectivity():
    report("pairing perfection", perfection_and_surjectivity(max_n=3, bound=3))


def test_pairing_balance():
    report("pairing balance", balance_trials(seed=DEFAULT_SEED, trials=500))


def test_regular_sequence_on_dual():
    report("regular sequence", regularity_sweep(max_n=4, bound=4))


def test_derivation_laws():
    report("derivation laws", leibniz_weyl_trials(seed=DEFAULT_SEED,
                                                  per_config=2))


def test_profile_separation():
    report("profile separation", separation_pairs(max_power=4, lmax=14,
                                                  search_bound=5))


def test_io_determinism():
    report("serialization determinism", roundtrip_trials(seed=DEFAULT_SEED,
                                                         trials=1000))
