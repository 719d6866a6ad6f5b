"""Solvers for stable matching problems with a designated deviator set.

Only the deviators must end up free of blocking pairs; the question is
whether a matching (unrestricted, maximum-cardinality, or perfect) exists
whose deviator-side instability stays within a budget, or how small that
instability can get.  solve() picks the engine that answers a problem.
"""

import importlib

from .core import (
    BlockingReport,
    DeviatorProblem,
    Instance,
    InstanceError,
    Matching,
    Objective,
    SizeRegime,
    SolveOutcome,
    VerificationError,
    blocking_report,
    objective_value,
    validate_instance,
    verify_solution,
)
# The solver modules load on first use (PEP 562), so `import devmatch` costs core alone.
_LAZY = {
    "WeightedGraph": "classic",
    "gale_shapley": "classic",
    "irving_sr": "classic",
    "max_cardinality_matching": "classic",
    "max_cardinality_size": "classic",
    "max_weight_matching": "classic",
    "optimize_fpt": "fpt",
    "solve_bipartite_restriction": "fpt",
    "solve_fpt": "fpt",
    "GenModel": "generators",
    "GenSpec": "generators",
    "generate": "generators",
    "OracleReport": "oracle",
    "enumerate_matchings": "oracle",
    "oracle_solve": "oracle",
    "decompose": "shortlist",
    "solve_shortlist_any": "shortlist",
    "solve_shortlist_max": "shortlist",
}


def __getattr__(name: str):
    """A solver name of __all__, read from its module, imported on first use."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


__all__ = [
    "BlockingReport",
    "DeviatorProblem",
    "ENGINES",
    "EngineUnsupported",
    "GenModel",
    "GenSpec",
    "Instance",
    "InstanceError",
    "Matching",
    "Objective",
    "OracleReport",
    "SizeRegime",
    "SolveOutcome",
    "VerificationError",
    "WeightedGraph",
    "blocking_report",
    "decompose",
    "enumerate_matchings",
    "gale_shapley",
    "generate",
    "irving_sr",
    "max_cardinality_matching",
    "max_cardinality_size",
    "max_weight_matching",
    "objective_value",
    "optimize_fpt",
    "oracle_solve",
    "solve",
    "solve_bipartite_restriction",
    "solve_fpt",
    "solve_shortlist_any",
    "solve_shortlist_max",
    "validate_instance",
    "verify_solution",
]

ENGINES = ("auto", "shortlist", "fpt", "bipartite", "oracle")


class EngineUnsupported(ValueError):
    """The engine does not exist, or does not answer this regime or budget."""


def solve(problem: DeviatorProblem, engine: str = "auto", cap: int = 14) -> SolveOutcome | None:
    """Answer a deviator problem with the named engine; "auto" picks one.

    auto sends lists of length at most 2 outside the perfect regime to the
    shortlist solvers.  Any other any-size problem first tries the zero
    certificate (the bipartite engine): a matching with no deviator
    blocking pair has value 0, which fits every budget and is the optimum.
    Everything else goes to the configuration search, which optimizes when
    the budget is None.  oracle enumerates every matching of at most cap
    agents.  Returns None only from the bipartite engine, when its
    certificate does not exist.

    Raises EngineUnsupported for an unknown engine, shortlist in the perfect
    regime, or bipartite outside the any-size regime;
    shortlist.ListTooLong and oracle.TooLarge when the instance is out of
    the engine's reach; and fpt.PerfectInfeasible when optimizing a perfect
    matching that does not exist.
    """
    regime = problem.size_regime
    if engine == "auto":
        if problem.instance.d_max <= 2 and regime is not SizeRegime.PERFECT:
            engine = "shortlist"
        else:
            if regime is SizeRegime.ANY:
                outcome = solve(problem, "bipartite")
                if outcome is not None:
                    return outcome
            engine = "fpt"

    # The refusals name the CLI's flags: devmatch solve prints them as usage errors.
    if engine == "shortlist":
        from .shortlist import solve_shortlist_any, solve_shortlist_max

        if regime is SizeRegime.PERFECT:
            raise EngineUnsupported("the shortlist engine does not support --regime perfect")
        if regime is SizeRegime.ANY:
            return solve_shortlist_any(problem)
        return solve_shortlist_max(problem)
    if engine == "bipartite":
        if regime is not SizeRegime.ANY:
            raise EngineUnsupported("the bipartite engine needs --regime any")
        from .fpt import solve_bipartite_restriction

        matching = solve_bipartite_restriction(problem)
        if matching is None:
            return None
        return SolveOutcome.solution(matching, 0, "bipartite-restriction")
    if engine == "oracle":
        from .oracle import oracle_solve

        report = oracle_solve(problem, cap=cap)
        optimum = (
            report.optimum_bp
            if problem.objective is Objective.BLOCKING_PAIRS
            else report.optimum_ba
        )
        if optimum is None or (problem.budget is not None and optimum > problem.budget):
            return SolveOutcome.infeasible("oracle")
        return SolveOutcome.solution(
            report.witness_per_objective[problem.objective], optimum, "oracle"
        )
    if engine != "fpt":
        raise EngineUnsupported(f"unknown engine {engine!r}")
    from .fpt import optimize_fpt, solve_fpt

    return optimize_fpt(problem) if problem.budget is None else solve_fpt(problem)
