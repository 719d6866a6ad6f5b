"""devmatch.solve: every engine against the exhaustive oracle."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import devmatch
from devmatch import ENGINES, EngineUnsupported, fileio, solve
from devmatch.core import Instance, Objective, SizeRegime, verify_solution
from devmatch.fpt import PerfectInfeasible, optimize_fpt
from devmatch.generators import GenModel, GenSpec, generate
from devmatch.oracle import oracle_solve
from devmatch.shortlist import ListTooLong

from conftest import problem, with_one_sided_entries, with_self_entries

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
    if engine == "bipartite" and regime is not SizeRegime.ANY:
        return EngineUnsupported
    if engine in ("auto", "fpt") and p.budget is None and want is None:
        return PerfectInfeasible
    return None


def check_engine(p, engine, want):
    """solve(p, engine) against the oracle's optimum want for p's objective and regime.

    It either raises the exception solve documents for it, or gives the
    oracle's feasibility, an optimum-valued outcome when optimizing, a value
    between the optimum and the budget otherwise, and a matching that
    passes verify_solution(strict=True).  Only the forced bipartite engine
    may answer None (restriction not applicable).
    """
    error = expected_error(engine, p, want)
    if error is not None:
        with pytest.raises(error):
            solve(p, engine)
        return
    out = solve(p, engine)
    if out is None:
        assert engine == "bipartite"
        return
    budget = p.budget
    assert out.feasible == (want is not None and (budget is None or want <= budget)), (p, engine)
    if not out.feasible:
        return
    if budget is None:
        assert out.value == want
    else:
        assert want <= out.value <= budget
    assert verify_solution(p, out.matching, out.value, strict=True)


def optimum(report, objective):
    return report.optimum_bp if objective is Objective.BLOCKING_PAIRS else report.optimum_ba


def test_every_engine_agrees_with_the_oracle():
    """Each engine x objective x regime x budget on 120 seeded draws of n <= 10, by check_engine."""
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
                    for budget in (None, 0, 1, 2):
                        p = problem(inst, deviators, objective, regime, budget)
                        for engine in ENGINES:
                            check_engine(p, engine, optimum(report, objective))


@settings(max_examples=600, deadline=None)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    model=st.sampled_from([m for m, _ in DRAWS]),
    cap=st.integers(1, 4),
    frac=st.floats(0.2, 0.5),
    engine=st.sampled_from(ENGINES),
)
def test_a_drawn_engine_agrees_with_the_oracle(n, seed, model, cap, frac, engine):
    """One engine per drawn problem of n <= 12, under every regime, objective and budget.

    Each combination goes through check_engine, with one oracle call per regime.
    """
    if model is GenModel.PATH_CYCLE_ONLY:
        cap = min(cap, 2)
    drawn = generate(GenSpec(n=n, model=model, list_cap=cap, deviator_fraction=frac, seed=seed))
    assume(len(drawn.deviators) <= 5)
    inst, deviators = drawn.instance, drawn.deviators
    for regime in SizeRegime:
        report = oracle_solve(problem(inst, deviators, regime=regime))
        for objective in Objective:
            for budget in (None, 0, 1, 2):
                p = problem(inst, deviators, objective, regime, budget)
                check_engine(p, engine, optimum(report, objective))


def test_one_sided_entries_count_as_absent_in_every_solver():
    """optimize_fpt, auto and the oracle agree on draws with one-sided or self entries.

    validate_instance rejects such entries, and the library's solvers treat
    them as absent: 300 seeded draws of n 3-10 (list cap 3, half deviators),
    each once with 1-3 one-sided entries and once with two agents ranking
    themselves, every regime and objective.  Each outcome is the optimum of
    the draw without those entries and passes strict verification.
    """
    rng = random.Random(20261019)
    for seed in range(300):
        drawn = generate(GenSpec(n=rng.randint(3, 10), list_cap=3, deviator_fraction=0.5,
                                 seed=seed))
        one_sided = with_one_sided_entries(drawn.instance, rng, rng.randint(1, 3))
        self_ranked = with_self_entries(drawn.instance, random.Random(seed), 2)
        for regime in SizeRegime:
            clean = oracle_solve(problem(drawn.instance, drawn.deviators, regime=regime))
            for inst in filter(None, (one_sided, self_ranked)):
                report = oracle_solve(problem(inst, drawn.deviators, regime=regime))
                for objective in Objective:
                    p = problem(inst, drawn.deviators, objective, regime)
                    want = optimum(clean, objective)
                    assert optimum(report, objective) == want
                    if want is None:
                        for run in (optimize_fpt, solve):
                            with pytest.raises(PerfectInfeasible):
                                run(p)
                        continue
                    outcomes = [optimize_fpt(p), solve(p)]
                    assert [out.value for out in outcomes] == [want, want], (p, outcomes)
                    witnesses = [out.matching for out in outcomes]
                    witnesses.append(report.witness_per_objective[objective])
                    for matching in witnesses:
                        assert verify_solution(p, matching, want, strict=True)


def test_a_deviator_never_takes_a_one_sided_partner():
    """Deviator 1 ranks 3, but 3 ranks only 4: 1 can only be matched to 2."""
    p = problem(Instance(4, ((), (3, 2), (1,), (4,), (3,))), {1})
    for out in (optimize_fpt(p), solve(p, "fpt"), solve(p)):
        assert out.value == 0
        assert verify_solution(p, out.matching, 0, strict=True)
    assert optimize_fpt(p).matching.pairs == {(1, 2)}


def answer(p, engine):
    """solve's (pairs, value, note), None, or the name of the exception it raised."""
    try:
        out = solve(p, engine)
    except (PerfectInfeasible, EngineUnsupported) as exc:
        return type(exc).__name__
    if out is None:
        return None
    return (sorted(out.matching.pairs) if out.feasible else None, out.value,
            out.certificate_note)


TRUST_CASES = [
    (engine, regime, objective, budget)
    for regime in SizeRegime
    for engine in ("auto", "fpt", "bipartite")
    if engine != "bipartite" or regime is SizeRegime.ANY
    for objective in Objective
    for budget in (None, 0, 1)
]


def test_a_validated_instance_solves_like_an_unvalidated_one():
    """Solving a parsed file and a fresh Instance of the same lists gives the same answer.

    A validated instance reads Instance.mutual off its lists; a fresh one
    filters them through rank tables.  1,200 seeded draws (SRI, SMI and
    path/cycle, n 2-40, list cap 1-4, at most 5 deviators) each take 6 of
    the 42 combinations of engine, regime, objective and budget in turn,
    so every combination runs on about 170 draws.
    """
    rng = random.Random(18)
    draws = 0
    while draws < 1200:
        model = rng.choice(list(GenModel))
        cap = rng.randint(1, 2 if model is GenModel.PATH_CYCLE_ONLY else 4)
        drawn = generate(GenSpec(n=rng.randint(2, 40), model=model, list_cap=cap,
                                 deviator_fraction=rng.uniform(0, 0.15), seed=rng.getrandbits(32)))
        if len(drawn.deviators) > 5:
            continue
        text = fileio.serialize_instance(drawn.instance, drawn.deviators)
        parsed, deviators = fileio.parse_instance(text)
        fresh = Instance(parsed.num_agents, parsed.prefs, parsed.sides)
        assert parsed.mutual is parsed.prefs and fresh.mutual is not fresh.prefs
        for t in range(6 * draws, 6 * draws + 6):
            engine, regime, objective, budget = TRUST_CASES[t % len(TRUST_CASES)]
            got = [answer(problem(inst, deviators, objective, regime, budget), engine)
                   for inst in (parsed, fresh)]
            assert got[0] == got[1], (text, engine, regime, objective, budget)
        draws += 1


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


def test_importing_the_package_loads_core_alone():
    """The solver modules load on first use, and every name in __all__ resolves."""
    code = (
        "import sys, devmatch\n"
        "lazy = ('classic', 'fpt', 'generators', 'oracle', 'shortlist')\n"
        "print([m for m in lazy if f'devmatch.{m}' in sys.modules])\n"
        "from devmatch import optimize_fpt\n"
        "print(optimize_fpt.__module__, 'devmatch.shortlist' in sys.modules)\n"
        "print(all(getattr(devmatch, name) is not None for name in devmatch.__all__))\n"
        "print(hasattr(devmatch, 'no_such_name'))\n"
    )
    src = str(Path(devmatch.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.split("\n")[:4] == ["[]", "devmatch.fpt False", "True", "False"]


def test_the_cli_loads_each_module_where_it_is_used(tmp_path):
    """Importing the CLI, and validating a file, load no solver, oracle, generator or reduction.

    Nor does importing the CLI load json, which only the canonical parse reads.
    """
    path = tmp_path / "cycle.dsm"
    path.write_text(fileio.serialize_instance(generate(GenSpec(n=12, seed=4)).instance))
    code = (
        "import sys, devmatch.cli\n"
        "print('json' in sys.modules)\n"
        "lazy = ('classic', 'fpt', 'generators', 'oracle', 'reductions', 'shortlist')\n"
        "print([m for m in lazy if f'devmatch.{m}' in sys.modules])\n"
        f"devmatch.cli.main(['validate', {str(path)!r}])\n"
        "print([m for m in lazy if f'devmatch.{m}' in sys.modules])\n"
        "devmatch.cli.main(['gen', '--n', '4'])\n"
        "print('devmatch.generators' in sys.modules)\n"
    )
    src = str(Path(devmatch.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120, check=True,
    )
    lines = done.stdout.split("\n")
    assert lines[:3] == ["False", "[]", "ok agents=12 deviators=0 d_max=3"], done.stdout
    assert lines[3] == "[]"
    assert lines[-2] == "True"

