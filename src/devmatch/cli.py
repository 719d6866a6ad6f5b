"""Command-line driver.

Subcommands: validate, solve, oracle, verify, gen, and reduce
{sat2smi|smi2sri|complete|minba-complete}.  Exit codes: 0 success/feasible,
1 infeasible or verification failed, 2 usage error, 3 unreadable or invalid
input.  Output is deterministic for identical invocations.  solve leaves the
choice of engine to devmatch.solve and only parses, prints and maps errors
to exit codes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import ENGINES, EngineUnsupported, fileio, fpt, oracle, reductions, shortlist, solve
from .core import (
    DeviatorProblem,
    InstanceError,
    Objective,
    SizeRegime,
    VerificationError,
    checked_value,
    verify_solution,  # noqa: F401 -- kept importable as cli.verify_solution for perfbench
)
from .generators import GenModel, GenSpec, InfeasibleSpec, generate

_MODELS = {
    "sri": GenModel.SRI_UNIFORM,
    "smi": GenModel.SMI_UNIFORM,
    "pathcycle": GenModel.PATH_CYCLE_ONLY,
}


def _budget(text: str) -> int:
    """argparse type of --k, --max-oracle and --value: a non-negative int, else a usage error."""
    message = f"expected a non-negative integer, got {text!r}"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if value < 0:
        raise argparse.ArgumentTypeError(message)
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="devmatch")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_flags(p, with_budget=True):
        p.add_argument("--objective", choices=["bp", "ba"], default="bp")
        p.add_argument("--regime", choices=["any", "max", "perfect"], default="any")
        if with_budget:
            group = p.add_mutually_exclusive_group()
            group.add_argument("--k", type=_budget, default=None)
            group.add_argument("--optimize", action="store_true")

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("instance")

    p = sub.add_parser("solve", help="solve a deviator problem")
    p.add_argument("instance")
    add_problem_flags(p)
    p.add_argument("--engine", choices=ENGINES, default="auto")
    p.add_argument("--max-oracle", type=_budget, default=14)
    p.add_argument("--out", help="write the matching to this file")

    p = sub.add_parser("oracle", help="exhaustively analyse a small instance")
    p.add_argument("instance")
    add_problem_flags(p, with_budget=False)
    p.add_argument("--max-oracle", type=_budget, default=14)

    p = sub.add_parser("verify", help="check a matching against an instance")
    p.add_argument("instance")
    p.add_argument("--matching", required=True)
    add_problem_flags(p)
    p.add_argument("--value", type=_budget, default=None)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--model", choices=sorted(_MODELS), default="sri")
    p.add_argument("--list-cap", type=int, default=3)
    p.add_argument("--deviator-fraction", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("reduce", help="apply a problem transformation")
    kinds = p.add_subparsers(dest="kind", required=True)

    q = kinds.add_parser("sat2smi")
    q.add_argument("cnf")
    q.add_argument("--out")
    q.add_argument("--witness", help="also emit a witness matching (exit 1 if unsatisfiable)")

    q = kinds.add_parser("smi2sri")
    q.add_argument("instance")
    q.add_argument("--objective", choices=["bp", "ba"], default="bp")
    q.add_argument("--out")

    q = kinds.add_parser("complete")
    q.add_argument("instance")
    q.add_argument("--out")

    q = kinds.add_parser("minba-complete")
    q.add_argument("instance")
    q.add_argument("--k", type=_budget, required=True)
    q.add_argument("--out")
    return parser


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _problem(args) -> DeviatorProblem:
    instance, deviators = fileio.parse_instance(_read(args.instance))
    budget = getattr(args, "k", None)
    return DeviatorProblem(
        instance,
        deviators,
        objective=Objective(args.objective),
        size_regime=SizeRegime(args.regime),
        budget=budget,
    )


def _run_solve(args, parser) -> int:
    problem = _problem(args)  # budget None (no --k) means optimize
    try:
        outcome = solve(problem, args.engine, args.max_oracle)
    except fpt.PerfectInfeasible as exc:
        print(f"infeasible: {exc}")
        return 1
    except EngineUnsupported as exc:
        parser.error(str(exc))
    if outcome is None:
        print("not applicable")
        return 1
    if not outcome.feasible:
        print("infeasible")
        print(f"algorithm {outcome.certificate_note}")
        return 1
    for i, j in sorted(outcome.matching.pairs):
        print(f"{i} {j}")
    print(f"value {outcome.value}")
    print(f"algorithm {outcome.certificate_note}")
    if args.out:
        _emit(fileio.serialize_matching(outcome.matching), args.out)
    return 0


def _run_oracle(args) -> int:
    problem = _problem(args)
    report = oracle.oracle_solve(problem, cap=args.max_oracle)
    max_size, perfect = report.regime_sizes
    print(f"max_size {max_size}")
    print(f"perfect_exists {'true' if perfect else 'false'}")
    for name, value in (("optimum_bp", report.optimum_bp), ("optimum_ba", report.optimum_ba)):
        print(f"{name} {value if value is not None else 'none'}")
    print(f"stable_exists {'true' if report.stable_exists else 'false'}")
    for objective in (Objective.BLOCKING_PAIRS, Objective.BLOCKING_AGENTS):
        witness = report.witness_per_objective.get(objective)
        label = f"witness_{objective.value}"
        if witness is None:
            print(f"{label} none")
        else:
            print(f"{label} " + " ".join(f"{i}-{j}" for i, j in sorted(witness.pairs)))
    return 0


def _run_verify(args) -> int:
    problem = _problem(args)
    matching = fileio.parse_matching(_read(args.matching), problem.instance.num_agents)
    try:
        claimed = checked_value(problem, matching, args.value)
    except VerificationError as exc:
        print(f"verification failed: {exc}")
        return 1
    print(f"ok value {claimed}")
    return 0


def _run_gen(args) -> int:
    spec = GenSpec(
        n=args.n,
        model=_MODELS[args.model],
        list_cap=args.list_cap,
        deviator_fraction=args.deviator_fraction,
        seed=args.seed,
    )
    problem = generate(spec)
    _emit(fileio.serialize_instance(problem.instance, problem.deviators), args.out)
    return 0


def _run_reduce(args) -> int:
    if args.kind == "sat2smi":
        formula = reductions.parse_cnf_22e3(_read(args.cnf))
        problem, index = reductions.sat_to_perfect_smi(formula)
        _emit(fileio.serialize_instance(problem.instance, problem.deviators), args.out)
        if args.witness:
            assignment = reductions.first_satisfying_assignment(formula)
            if assignment is None:
                print("unsatisfiable", file=sys.stderr)
                return 1
            witness = reductions.witness_matching(formula, assignment, index)
            _emit(fileio.serialize_matching(witness), args.witness)
        return 0
    instance, deviators = fileio.parse_instance(_read(args.instance))
    if args.kind == "smi2sri":
        problem = DeviatorProblem(
            instance,
            deviators,
            objective=Objective(args.objective),
            size_regime=SizeRegime.PERFECT,
            budget=0,
        )
        result = reductions.smi_to_sri(problem)
        _emit(fileio.serialize_instance(result.instance, result.deviators), args.out)
    elif args.kind == "complete":
        problem = DeviatorProblem(instance, deviators, budget=0)
        result = reductions.complete_lists(problem)
        _emit(fileio.serialize_instance(result.instance, result.deviators), args.out)
    else:  # minba-complete
        padded = reductions.minba_complete(instance, args.k)
        everyone = frozenset(padded.agents())
        _emit(fileio.serialize_instance(padded, everyone), args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            instance, deviators = fileio.parse_instance(_read(args.instance))
            print(
                f"ok agents={instance.num_agents} deviators={len(deviators)} "
                f"d_max={instance.d_max}"
            )
            return 0
        if args.command == "solve":
            return _run_solve(args, parser)
        if args.command == "oracle":
            return _run_oracle(args)
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "gen":
            return _run_gen(args)
        return _run_reduce(args)
    except (
        fileio.SyntaxError,
        InstanceError,
        reductions.CnfError,
        reductions.RegimeUnsupported,
        reductions.BudgetTooLarge,
        oracle.TooLarge,
        shortlist.ListTooLong,
        OSError,
        UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InfeasibleSpec as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
