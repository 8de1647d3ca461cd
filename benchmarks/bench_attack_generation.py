"""Micro-benchmarks of the attack-generation engine.

Not a paper figure — these measure the crafting throughput of the unified
attack runtime (:mod:`repro.attacks.engine`), which bounds every figure
sweep now that PRs 1-2 made victim inference fast:

* **sweep amortization** — one ``generate_sweep`` pass over the paper's ten
  budgets vs the per-epsilon ``generate`` loop it replaces (the FGM family
  pays exactly one gradient for the whole sweep).

Every measurement is recorded into the ``attack_generation`` suite report
for the regression gate.
"""

import numpy as np
import pytest

from repro.attacks import PAPER_EPSILONS, AttackEngine, get_attack
from repro.benchmarking import best_of


@pytest.mark.benchmark(group="attack-gen")
@pytest.mark.parametrize("attack_key", ["FGM_linf", "BIM_linf", "PGD_linf", "RAU_linf"])
def test_attack_sweep_amortized(benchmark, suite, lenet_bundle, attack_key):
    """One amortised sweep over the paper's ten budgets (the engine path)."""
    engine = AttackEngine(lenet_bundle["model"])
    x, y = lenet_bundle["x"], lenet_bundle["y"]
    sweep = benchmark.pedantic(
        lambda: suite.timed(
            f"sweep.{attack_key}_s",
            lambda: engine.generate_sweep(get_attack(attack_key), x, y, PAPER_EPSILONS),
        ),
        rounds=1,
        iterations=1,
    )
    assert set(sweep) == set(PAPER_EPSILONS)


@pytest.mark.benchmark(group="attack-gen")
def test_attack_sweep_amortization_vs_per_epsilon(benchmark, suite, lenet_bundle):
    """Acceptance check: the FGM sweep beats the per-epsilon loop it replaced.

    FGM evaluates one input gradient per ``generate`` call; the amortised
    sweep evaluates it once for all ten budgets, so the ratio approaches the
    budget count as the gradient dominates.  Measured inline so the ratio
    lands in the suite report.
    """
    model, x, y = lenet_bundle["model"], lenet_bundle["x"], lenet_bundle["y"]
    engine = AttackEngine(model)
    attack = get_attack("FGM_linf")

    def per_epsilon_loop():
        return {eps: engine.generate(attack, x, y, eps) for eps in PAPER_EPSILONS}

    def amortized():
        return engine.generate_sweep(attack, x, y, PAPER_EPSILONS)

    loop_s = best_of(per_epsilon_loop)
    sweep_s = best_of(amortized)
    suite.record("amortization.per_epsilon_s", loop_s)
    suite.record("amortization.sweep_s", sweep_s)
    suite.record(
        "amortization.speedup", loop_s / sweep_s, unit="ratio", higher_is_better=True
    )
    benchmark.extra_info["per_epsilon_ms"] = loop_s * 1e3
    benchmark.extra_info["amortized_ms"] = sweep_s * 1e3
    benchmark.extra_info["speedup"] = loop_s / sweep_s
    benchmark.pedantic(amortized, rounds=1, iterations=1)
    # bit-identity of the two paths
    loop_result, sweep_result = per_epsilon_loop(), amortized()
    for eps in PAPER_EPSILONS:
        assert np.array_equal(loop_result[eps], sweep_result[eps])
    assert loop_s / sweep_s >= 2.0, (
        f"amortised FGM sweep only {loop_s / sweep_s:.2f}x faster than the "
        f"per-epsilon loop"
    )
