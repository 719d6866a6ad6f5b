"""The benchmark's workloads: seeded inputs, one round of ops, answer checks.

A round is a fixed multiset of ops in a seeded order, each op under its own
label.  The runner times whole rounds for --seconds and reads the median and
tail over the labels' mean latencies, so every run reads the same op classes
whatever the seed or the number of rounds.  Ops marked baseline (ROADMAP's
baseline instances that take a second or more) are left out of the rounds;
the traced run times each of them once, untraced and traced, in its rows.

Why these workloads:

- tri-search: `optimize_fpt` on ordered-triangle instances tri(c, m).  Every
  budget below the optimum walks the whole configuration stream, the only
  family that reaches the exponential part of the search; m from 20 to 20000
  exposes the per-configuration cost that grows with n.  It never calls the
  degree-2 solvers.
- shortlist-long: `solve_shortlist_any` and `solve_shortlist_max` on
  degree-<=2 instances with long odd paths and cycles.  All the work is in
  decomposition and per-component scoring (quadratic for the max regime);
  the configuration search is bypassed.  It is not in BENCHMARK.json: its
  runs need the same 50 s as the other two to read steady on a 2-core host,
  and three workloads of that length do not fit the time allowed for all
  runs.  Run it by hand for ROADMAP's shortlist rows; cli-random's pathcycle
  files still reach the shortlist layer.
- cli-random: in-process `devmatch.cli.main` solves and verifies on random
  generator files.  The search stops at configuration #0, so the time goes to
  parsing, validation, engine choice, the bipartite fast path and networkx
  matching.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from devmatch import cli, core, fileio, fpt, oracle, shortlist
from devmatch.core import DeviatorProblem, Instance, Objective, SizeRegime
from devmatch.generators import GenModel, GenSpec, generate

from . import instances
from .instances import EVEN_CYCLE, ORDERED_ODD_CYCLE, PATH, UNORDERED_ODD_CYCLE, Prefs

SOLVER_MODULES = {"fpt": fpt, "shortlist": shortlist}

REGIMES = {"any": SizeRegime.ANY, "max": SizeRegime.MAX_CARDINALITY}


class WrongAnswer(Exception):
    """An op's result fails a correctness check."""


def _problem(data: Prefs, regime: str, objective: str) -> DeviatorProblem:
    instance = Instance(data.num_agents, data.prefs)
    return DeviatorProblem(instance, data.deviators, Objective(objective), REGIMES[regime])


def _library_outcome(problem: DeviatorProblem):
    """The library's answer from the engine the CLI's auto choice ends in."""
    if problem.instance.d_max <= 2:
        if problem.size_regime is SizeRegime.ANY:
            return shortlist.solve_shortlist_any(problem)
        return shortlist.solve_shortlist_max(problem)
    if problem.budget is None:
        return fpt.optimize_fpt(problem)
    return fpt.solve_fpt(problem)


@dataclass
class LibraryOp:
    """One library solve call on a fresh Instance built from stored prefs.

    solver names a devmatch function as "module.attr"; it is looked up at
    call time, so a traced run goes through the tracing wrappers.  at_most,
    when set, labels the any-regime op on the same instance and objective
    whose value must not exceed this op's value.  baseline marks an op that
    only the traced run times, once (see run.py).
    """

    label: str
    data: Prefs
    solver: str
    regime: str
    objective: str
    at_most: str | None = None
    baseline: bool = False

    def prepare(self):
        problem = _problem(self.data, self.regime, self.objective)
        module, attr = self.solver.split(".")
        solve = getattr(SOLVER_MODULES[module], attr)
        return lambda: solve(problem)

    def signature(self, outcome):
        pairs = tuple(sorted(outcome.matching.pairs)) if outcome.feasible else None
        return pairs, outcome.value, outcome.certificate_note

    def check(self, outcome, results) -> None:
        """Verify strictly, then compare with what is known by construction.

        verify_solution runs on the any-regime view (acceptability, value);
        max-regime membership is checked against the maximum matching size
        known by construction, because networkx takes seconds per check on
        the 4000-agent instances.  The small-instance cross-check compares
        that size with the oracle's.
        """
        if not outcome.feasible:
            raise WrongAnswer(f"{self.label}: no matching returned")
        problem = _problem(self.data, "any", self.objective)
        try:
            core.verify_solution(problem, outcome.matching, outcome.value, strict=True)
        except core.VerificationError as exc:
            raise WrongAnswer(f"{self.label}: {exc}") from None
        if self.regime == "max" and len(outcome.matching.pairs) != self.data.max_pairs:
            raise WrongAnswer(
                f"{self.label}: {len(outcome.matching.pairs)} pairs, "
                f"a maximum matching has {self.data.max_pairs}"
            )
        known = self.data.optimum(self.regime, self.objective)
        if known is not None and outcome.value != known:
            raise WrongAnswer(f"{self.label}: value {outcome.value}, optimum is {known}")
        lower = results.get(self.at_most)
        if lower is not None and outcome.value < lower.value:
            raise WrongAnswer(
                f"{self.label}: max-regime value {outcome.value} below any-regime {lower.value}"
            )

    def counts(self, outcome) -> dict:
        return {}


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


@dataclass
class CliSolveOp:
    """`devmatch solve FILE ... --out OUT` through cli.main, stdout captured."""

    label: str
    path: Path
    out: Path
    regime: str
    objective: str
    budget: int | None
    baseline = False

    def argv(self):
        flags = ["--k", str(self.budget)] if self.budget is not None else ["--optimize"]
        return [
            "solve", str(self.path), "--regime", self.regime,
            "--objective", self.objective, *flags, "--out", str(self.out),
        ]

    def prepare(self):
        argv = self.argv()
        return lambda: _run_cli(argv)

    def signature(self, result):
        return result

    def _problem(self):
        instance, deviators = fileio.parse_instance(self.path.read_text())
        return DeviatorProblem(
            instance, deviators, Objective(self.objective), REGIMES[self.regime], self.budget
        )

    def check(self, result, results) -> None:
        code, text = result
        lines = text.splitlines()
        if code == 1:
            if self.budget is None or lines[:1] != ["infeasible"]:
                raise WrongAnswer(f"{self.label}: unexpected exit 1: {text!r}")
            if _library_outcome(self._problem()).feasible:
                raise WrongAnswer(f"{self.label}: CLI infeasible, library feasible")
            return
        if code != 0 or len(lines) < 2:
            raise WrongAnswer(f"{self.label}: exit {code}: {text!r}")
        value = int(lines[-2].split()[1])
        matching = fileio.parse_matching(self.out.read_text())
        if [f"{i} {j}" for i, j in sorted(matching.pairs)] != lines[:-2]:
            raise WrongAnswer(f"{self.label}: --out file differs from stdout")
        problem = self._problem()
        try:
            core.verify_solution(problem, matching, value, strict=True)
        except core.VerificationError as exc:
            raise WrongAnswer(f"{self.label}: {exc}") from None
        if self.budget is None:
            library = _library_outcome(problem)
            if library.value != value:
                raise WrongAnswer(
                    f"{self.label}: CLI value {value}, library optimum {library.value}"
                )

    def counts(self, result) -> dict:
        for line in result[1].splitlines():
            if line.startswith("algorithm "):
                return {"cli.engine." + line.split()[1].split("-")[0]: 1}
        return {}


@dataclass
class CliVerifyOp:
    """`devmatch verify FILE --matching OUT` on the file its solve wrote.

    Not applicable (prepare returns None) when the solve wrote no file,
    i.e. it reported the instance infeasible.
    """

    label: str
    solve: CliSolveOp
    baseline = False

    def prepare(self):
        s = self.solve
        if not s.out.exists():
            return None
        flags = ["--k", str(s.budget)] if s.budget is not None else []
        argv = [
            "verify", str(s.path), "--matching", str(s.out),
            "--regime", s.regime, "--objective", s.objective, *flags,
        ]
        return lambda: _run_cli(argv)

    def signature(self, result):
        return result

    def check(self, result, results) -> None:
        if self.solve.label not in results:
            raise WrongAnswer(f"{self.label}: its solve gave no answer")
        solved = results[self.solve.label][1].splitlines()
        expected = f"ok value {solved[-2].split()[1]}\n"
        if result != (0, expected):
            raise WrongAnswer(f"{self.label}: got {result!r}, expected (0, {expected!r})")

    def counts(self, result) -> dict:
        return {}


@dataclass(frozen=True)
class Workload:
    """A named workload: how to build its inputs and one round of ops.

    tail is the percentile of the labels' mean latencies reported as
    op_ms.tail; it leaves at least ten labels of a round beyond it.
    build(seed, workdir) returns one round of ops plus the baseline ops;
    files(seed), when set, lists the generator draws a child process writes
    into workdir first.  crosscheck(seed, workdir) returns the failures of
    the oracle cross-check on small instances of the same shape.
    """

    name: str
    tail: int
    build: Callable[[int, Path], list]
    crosscheck: Callable[[int, Path], list[str]]
    files: Callable[[int], list[dict]] | None = None


# tri-search: (c, m, regime, objective, copies per round).  Copies are
# separate relabellings.  Sorted by mean latency on the reference box (2
# cores), a round of 51 ops (about 2.5 s) is 20 c=2 bp searches under 10 ms,
# the 12 tri(2, 20) any-ba searches of 13-19 ms, two of about 23 ms, one of
# about 65 ms, the 10 tri(3, 20) any-bp searches of 75-90 ms, and six of
# 0.1-0.45 s.  The median falls in the middle of the 12 and p80 in the middle
# of the 10, each an order statistic of one kind of op, not on the edge
# between two kinds; ten labels lie beyond p80.
TRI_MIX = (
    (2, 20, "any", "bp", 8),
    (2, 200, "any", "bp", 6),
    (2, 20, "max", "bp", 6),
    (2, 20, "any", "ba", 12),
    (2, 20, "max", "ba", 1),
    (2, 2000, "any", "bp", 1),
    (2, 200, "max", "bp", 1),
    (3, 20, "any", "bp", 10),
    (3, 20, "max", "bp", 1),
    (3, 200, "any", "bp", 1),
    (2, 200, "max", "ba", 1),
    (2, 2000, "any", "ba", 1),
    (2, 20000, "any", "bp", 1),
    (3, 2000, "any", "bp", 1),
)

# ROADMAP's baseline searches of 0.6-6 s, timed once by the traced run.
TRI_BASELINES = (
    (3, 20, "any", "ba"),
    (4, 20, "any", "bp"),
    (4, 200, "max", "bp"),
    (3, 20000, "any", "bp"),
)


def _tri_build(seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    ops = []
    for c, m, regime, objective, copies in TRI_MIX:
        for copy in range(copies):
            label = f"tri-{c}-{m}-{regime}-{objective}" + (f".{copy}" if copies > 1 else "")
            data = instances.ordered_triangles(c, m, rng.getrandbits(32))
            ops.append(LibraryOp(label, data, "fpt.optimize_fpt", regime, objective))
    rng.shuffle(ops)
    for c, m, regime, objective in TRI_BASELINES:
        data = instances.ordered_triangles(c, m, rng.getrandbits(32))
        ops.append(
            LibraryOp(
                f"tri-{c}-{m}-{regime}-{objective}", data, "fpt.optimize_fpt",
                regime, objective, baseline=True,
            )
        )
    return ops


def _tri_crosscheck(seed: int, workdir: Path) -> list[str]:
    rng = random.Random(seed)
    problems = []
    for c, m in ((2, 6), (3, 3), (1, 9)):
        data = instances.ordered_triangles(c, m, rng.getrandbits(32))
        for regime in ("any", "max"):
            for objective in ("bp", "ba"):
                problems.append((f"tri-{c}-{m}-{regime}-{objective}", data, regime, objective))
    return _oracle_agrees(problems, fpt.optimize_fpt)


# shortlist-long: (label, components, [(regime, objective)], copies).  The
# odd path of 1001 agents in the max regime and the 4001-agent ordered odd
# cycle in the any regime are ROADMAP's baseline rows; the mixed instances
# put every component kind side by side.  Every max-regime solve has an
# any-regime partner on the same instance and objective, so its value can be
# checked against it.  Sorted by mean latency on the reference box (2 cores),
# a round of 48 ops (about 4 s) is 32 linear-time or cheap max solves under
# 25 ms, most of them 12-20 ms on the 4000-agent cycles, and 16 quadratic
# max-regime sweeps of 0.1-0.3 s.  The median falls inside the first group
# and p75 inside the second, with twelve labels beyond it.
BOTH = (("any", "bp"), ("any", "ba"), ("max", "bp"), ("max", "ba"))
SHORTLIST_MIX = (
    ("path-1001", ((PATH, 1001),), BOTH, 3),
    ("path-2001", ((PATH, 2001),), (("any", "bp"),), 1),
    ("path-4001", ((PATH, 4001),), (("any", "bp"),), 1),
    ("ocycle-4001", ((ORDERED_ODD_CYCLE, 4001),), (("any", "bp"), ("any", "ba")), 4),
    ("ecycle-4000", ((EVEN_CYCLE, 4000),), (("any", "ba"), ("max", "ba")), 1),
    ("ocycle-601", ((ORDERED_ODD_CYCLE, 601),), BOTH, 2),
    ("ucycle-601", ((UNORDERED_ODD_CYCLE, 601),), BOTH, 2),
    (
        "mix-long",
        (
            (PATH, 401), (ORDERED_ODD_CYCLE, 301), (EVEN_CYCLE, 1000),
            (UNORDERED_ODD_CYCLE, 401), (PATH, 600), (PATH, 1),
        ),
        BOTH,
        1,
    ),
    (
        "mix-short",
        ((PATH, 9), (ORDERED_ODD_CYCLE, 7), (EVEN_CYCLE, 12), (UNORDERED_ODD_CYCLE, 5), (PATH, 30))
        * 40,
        BOTH,
        1,
    ),
)

# ROADMAP's max-regime odd paths of 2001 and 4001 agents (1-6 s), timed once
# by the traced run; their any-regime partners are in the round.
SHORTLIST_BASELINES = {"path-2001": (("max", "bp"),), "path-4001": (("max", "bp"),)}


def _shortlist_build(seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    ops, baselines = [], []
    for name, components, solves, copies in SHORTLIST_MIX:
        for copy in range(copies):
            suffix = f".{copy}" if copies > 1 else ""
            data = instances.degree_two(components, rng.getrandbits(32))
            for regime, objective in solves:
                ops.append(_shortlist_op(name, suffix, data, regime, objective))
            for regime, objective in SHORTLIST_BASELINES.get(name, ()):
                baselines.append(_shortlist_op(name, suffix, data, regime, objective, True))
    rng.shuffle(ops)
    return ops + baselines


def _shortlist_op(name, suffix, data, regime, objective, baseline=False) -> LibraryOp:
    at_most = f"{name}-any-{objective}{suffix}" if regime == "max" else None
    return LibraryOp(
        f"{name}-{regime}-{objective}{suffix}", data,
        "shortlist.solve_shortlist_" + regime, regime, objective, at_most, baseline,
    )


def _shortlist_crosscheck(seed: int, workdir: Path) -> list[str]:
    rng = random.Random(seed)
    shapes = (
        ((PATH, 5), (ORDERED_ODD_CYCLE, 3), (EVEN_CYCLE, 4)),
        ((ORDERED_ODD_CYCLE, 5), (UNORDERED_ODD_CYCLE, 5), (PATH, 2)),
        ((PATH, 7), (UNORDERED_ODD_CYCLE, 3), (PATH, 1), (ORDERED_ODD_CYCLE, 1 + 2)),
        ((EVEN_CYCLE, 6), (PATH, 6)),
    )
    problems = []
    for t, comps in enumerate(shapes):
        data = instances.degree_two(comps, rng.getrandbits(32))
        for regime in ("any", "max"):
            for objective in ("bp", "ba"):
                problems.append((f"d2-{t}-{regime}-{objective}", data, regime, objective))
    return _oracle_agrees(problems, _library_outcome)


def _oracle_agrees(problems, solve) -> list[str]:
    """Failures where the oracle's optimum differs from solve's or the known one."""
    failures = []
    for label, data, regime, objective in problems:
        problem = _problem(data, regime, objective)
        report = oracle.oracle_solve(problem)
        best = report.optimum_bp if objective == "bp" else report.optimum_ba
        got = solve(problem).value
        known = data.optimum(regime, objective)
        if got != best or (known is not None and known != best):
            failures.append(f"{label}: oracle {best}, solver {got}, by construction {known}")
        if report.regime_sizes[0] != data.max_pairs:
            failures.append(
                f"{label}: oracle maximum matching {report.regime_sizes[0]}, "
                f"by construction {data.max_pairs}"
            )
    return failures


# cli-random files: (model, agents, whether to add a --regime max solve).
# Every file is solved with --k 0 and with --optimize, each solve followed by
# a verify of its --out file.  The max-regime solves are the tail of this
# workload: networkx's maximum matching on the whole graph grows faster than
# n, so they stop at 800 agents, and there are four files of each of the two
# larger sizes so that one unlucky random graph moves a round little.  The
# seed draws the graphs, the deviators and the flags; the sizes are fixed so
# that every seed times a like mix.  The pathcycle files have d_max <= 2 and
# go to the shortlist engine.  A round is 74 ops (about 4.5 s on the
# reference box, 2 cores); sorted by mean latency, the top sixteen are the
# max-regime solves and verifies on the 400- and 800-agent files (50-700
# ms), and p86 falls among the 400-agent max solves with ten labels beyond.
CLI_FILES = (
    ("sri", 150, True),
    ("smi", 150, True),
    ("sri", 400, True),
    ("sri", 400, True),
    ("smi", 400, True),
    ("smi", 400, True),
    ("sri", 800, True),
    ("sri", 800, True),
    ("smi", 800, True),
    ("smi", 800, True),
    ("smi", 1800, False),
    ("pathcycle", 300, True),
    ("pathcycle", 700, False),
)


def cli_file_specs(seed: int) -> list[dict]:
    """The generator draws for cli-random; each becomes one instance file."""
    rng = random.Random(seed)
    specs = []
    for t, (model, n, _) in enumerate(CLI_FILES):
        specs.append(
            {
                "file": f"f{t}-{model}-{n}.dsm",
                "model": model,
                "n": n,
                "list_cap": 2 if model == "pathcycle" else 4,
                "seed": rng.getrandbits(32),
                "deviators": sorted(rng.sample(range(1, n + 1), rng.randint(2, 5))),
            }
        )
    return specs


def _cli_build(seed: int, workdir: Path) -> list:
    rng = random.Random(seed ^ 0x5EED)
    specs = cli_file_specs(seed)
    blocks = []
    for spec, (_, _, with_max) in zip(specs, CLI_FILES):
        path = workdir / spec["file"]
        stem = spec["file"][:-4]
        solves = [("any", rng.choice(["bp", "ba"]), 0), ("any", rng.choice(["bp", "ba"]), None)]
        if with_max:
            solves.append(("max", rng.choice(["bp", "ba"]), rng.choice([0, None])))
        for regime, objective, budget in solves:
            mode = "opt" if budget is None else f"k{budget}"
            label = f"cli-{stem}-{regime}-{mode}-{objective}"
            solve = CliSolveOp(label, path, workdir / f"{label}.out", regime, objective, budget)
            blocks.append([solve, CliVerifyOp(label + "-verify", solve)])
    rng.shuffle(blocks)
    return [op for pair in blocks for op in pair]


def _cli_crosscheck(seed: int, workdir: Path) -> list[str]:
    """CLI optimize on small generator files agrees with the oracle."""
    rng = random.Random(seed)
    failures = []
    for model in (GenModel.SRI_UNIFORM, GenModel.SMI_UNIFORM, GenModel.PATH_CYCLE_ONLY):
        cap = 2 if model is GenModel.PATH_CYCLE_ONLY else 4
        drawn = generate(GenSpec(n=12, model=model, list_cap=cap, seed=rng.getrandbits(32)))
        deviators = frozenset(rng.sample(range(1, 13), rng.randint(2, 5)))
        path = workdir / f"small-{model.value}.dsm"
        path.write_text(fileio.serialize_instance(drawn.instance, deviators))
        for regime in ("any", "max"):
            for objective in ("bp", "ba"):
                problem = DeviatorProblem(
                    drawn.instance, deviators, Objective(objective), REGIMES[regime], None
                )
                report = oracle.oracle_solve(problem)
                best = report.optimum_bp if objective == "bp" else report.optimum_ba
                code, out = _run_cli(
                    ["solve", str(path), "--regime", regime, "--objective", objective, "--optimize"]
                )
                got = int(out.splitlines()[-2].split()[1]) if code == 0 else None
                if got != best:
                    failures.append(f"{path.name} {regime} {objective}: oracle {best}, CLI {got}")
    return failures


def digest(ops) -> str:
    """SHA-256 over every input of one round, in op order."""
    h = hashlib.sha256()
    for op in ops:
        if isinstance(op, LibraryOp):
            d = op.data
            h.update(json.dumps([op.label, d.num_agents, d.prefs, sorted(d.deviators)]).encode())
        elif isinstance(op, CliSolveOp):
            h.update(json.dumps([op.label, *op.argv()[2:-2]]).encode())
            h.update(op.path.read_bytes())
        else:
            h.update(op.label.encode())
    return h.hexdigest()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tri-search", 80, _tri_build, _tri_crosscheck),
        Workload("shortlist-long", 75, _shortlist_build, _shortlist_crosscheck),
        Workload("cli-random", 86, _cli_build, _cli_crosscheck, cli_file_specs),
    )
}
