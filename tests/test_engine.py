"""devmatch.solve: every engine against the exhaustive oracle."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import devmatch
from devmatch import ENGINES, EngineUnsupported, solve
from devmatch.core import Objective, SizeRegime, verify_solution
from devmatch.fpt import PerfectInfeasible
from devmatch.generators import GenModel, GenSpec, generate
from devmatch.oracle import oracle_solve
from devmatch.shortlist import ListTooLong

from conftest import problem

DRAWS = [
    (GenModel.SRI_UNIFORM, 3),
    (GenModel.SMI_UNIFORM, 3),
    (GenModel.PATH_CYCLE_ONLY, 2),
]


def expected_error(engine, p, want):
    """The exception solve documents for this engine and problem, or None."""
    regime = p.size_regime
    if engine == "shortlist":
        if regime is SizeRegime.PERFECT:
            return EngineUnsupported
        if p.instance.d_max > 2:
            return ListTooLong
    if engine == "bipartite" and (regime is not SizeRegime.ANY or p.budget != 0):
        return EngineUnsupported
    if engine in ("auto", "fpt") and p.budget is None and want is None:
        return PerfectInfeasible
    return None


def test_every_engine_agrees_with_the_oracle():
    """Each engine x objective x regime x budget on 120 seeded draws of n <= 10.

    A combination either raises the exception solve documents for it, or
    gives the oracle's feasibility, an optimum-valued outcome when
    optimizing, a value between the optimum and the budget otherwise, and
    a matching that passes verify_solution(strict=True).  Only the forced
    bipartite engine may answer None (restriction not applicable).
    """
    rng = random.Random(20261018)
    for model, list_cap in DRAWS:
        for seed in range(40):
            drawn = generate(
                GenSpec(n=rng.randint(2, 10), model=model, list_cap=list_cap,
                        deviator_fraction=0.5, seed=seed)
            )
            inst, deviators = drawn.instance, drawn.deviators
            for regime in SizeRegime:
                report = oracle_solve(problem(inst, deviators, regime=regime))
                for objective in Objective:
                    want = (
                        report.optimum_bp
                        if objective is Objective.BLOCKING_PAIRS
                        else report.optimum_ba
                    )
                    for budget in (None, 0, 1, 2):
                        p = problem(inst, deviators, objective, regime, budget)
                        for engine in ENGINES:
                            error = expected_error(engine, p, want)
                            if error is not None:
                                with pytest.raises(error):
                                    solve(p, engine)
                                continue
                            out = solve(p, engine)
                            if out is None:
                                assert engine == "bipartite"
                                continue
                            assert out.feasible == (
                                want is not None and (budget is None or want <= budget)
                            ), (model, seed, regime, objective, budget, engine)
                            if not out.feasible:
                                continue
                            if budget is None:
                                assert out.value == want
                            else:
                                assert want <= out.value <= budget
                            assert verify_solution(p, out.matching, out.value, strict=True)


def test_unknown_engine_is_refused():
    p = generate(GenSpec(n=4, seed=1))
    with pytest.raises(EngineUnsupported):
        solve(p, "greedy")


SOLVE_EACH_REGIME = """
import sys
from dataclasses import replace

import devmatch
from devmatch.core import SizeRegime
from devmatch.generators import GenSpec, generate

base = generate(GenSpec(n=12, list_cap=3, deviator_fraction=0.3, seed=1))
for regime in SizeRegime:
    for engine in ("auto", "fpt"):
        devmatch.solve(replace(base, size_regime=regime, budget=1), engine)
print(sorted(name for name in sys.modules if name.partition(".")[0] == "networkx"))
"""


def test_solving_loads_no_networkx():
    """networkx serves only classic.max_weight_matching, which no solver calls."""
    src = str(Path(devmatch.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", SOLVE_EACH_REGIME], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"
