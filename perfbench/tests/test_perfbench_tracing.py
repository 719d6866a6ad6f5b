"""Tests for the benchmark's tracing wrappers, answer checks and seeding."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import devmatch  # noqa: E402
from devmatch import classic, cli, core, fileio, fpt, shortlist  # noqa: E402
from devmatch.core import DeviatorProblem, Objective, SizeRegime  # noqa: E402
from devmatch.generators import GenModel, GenSpec, generate  # noqa: E402

from perfbench import instances, run, setup_child, tracing, workloads  # noqa: E402
from perfbench.instances import ORDERED_ODD_CYCLE, PATH, UNORDERED_ODD_CYCLE  # noqa: E402


@pytest.fixture
def tracer():
    t = tracing.Tracer(tracing.devmatch_modules())
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_every_importing_namespace_holds_the_one_wrapper(tracer):
    w = tracer.wrappers
    assert fpt.verify_solution is w["core.verify_solution"] is core.verify_solution
    assert cli.verify_solution is w["core.verify_solution"] is devmatch.verify_solution
    assert fpt.blocking_report is w["core.blocking_report"] is core.blocking_report
    assert shortlist.blocking_report is w["core.blocking_report"]
    assert fileio.validate_instance is w["core.validate_instance"] is core.validate_instance
    assert classic.max_cardinality_size is w["classic.max_cardinality_size"]
    assert fpt.max_cardinality_size is w["classic.max_cardinality_size"]
    assert core.Instance.__post_init__ is w["core.instance_init"]
    assert tracer.absent == []


def test_uninstall_restores_the_originals():
    original = core.verify_solution
    t = tracing.Tracer(tracing.devmatch_modules())
    t.install()
    t.uninstall()
    assert core.verify_solution is original is fpt.verify_solution
    assert not hasattr(core.Instance.__post_init__, "__wrapped__")


def _max_problem():
    data = instances.ordered_triangles(1, 4, seed=3)
    return DeviatorProblem(
        core.Instance(data.num_agents, data.prefs), data.deviators,
        Objective.BLOCKING_PAIRS, SizeRegime.MAX_CARDINALITY, None,
    )


def test_nested_calls_count_once_and_deferred_import_is_seen(tracer):
    problem = _max_problem()
    outcome = fpt.optimize_fpt(problem)
    tracer.active = True
    assert fpt.verify_solution(problem, outcome.matching, outcome.value)
    tracer.active = False
    stats = tracer.totals()
    assert stats["core.verify_solution.calls"] == 1
    assert stats["core.blocking_report.calls"] == 1
    # core reaches max_cardinality_size through an import inside the function
    assert stats["classic.max_cardinality_size.calls"] == 1
    assert stats["core.verify_solution.self_s"] <= stats["core.verify_solution.s"]
    nested = stats["core.blocking_report.s"] + stats["classic.max_cardinality_size.s"]
    assert nested <= stats["core.verify_solution.s"]


def test_inactive_tracer_records_nothing(tracer):
    fpt.optimize_fpt(_max_problem())
    assert tracer.totals() == {}


def test_configuration_counts_add_up(tracer):
    tracer.active = True
    fpt.optimize_fpt(_max_problem())
    tracer.active = False
    m = tracer.metrics(tracer.totals())
    assert m["fpt.enumerate.configs"] == m["fpt.floor_skipped"] + m["fpt.truncate.calls"]
    assert m["fpt.truncate.calls"] == (
        m["fpt.truncate.rejected"] + m["fpt.memo_skipped"] + m["fpt.extend.calls"]
    )
    assert m["fpt.solve_fpt.calls"] == 2  # budgets 0 and 1; the optimum is 1


def test_missing_name_is_reported_absent_not_zero(monkeypatch):
    monkeypatch.delattr(fpt, "truncate_and_collect")
    t = tracing.Tracer(tracing.devmatch_modules())
    t.install()
    t.uninstall()
    assert t.absent == ["fpt.truncate"]
    m = t.metrics(t.totals())
    for gone in ("fpt.truncate.calls", "fpt.truncate.self_s", "fpt.floor_skipped", "fpt.memo_skipped"):
        assert gone not in m
    assert m["fpt.extend.calls"] == 0


def test_benchmark_json_declares_every_layer_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer"]]
    assert names == list(tracing.LAYER_METRICS) + ["trace.overhead_frac"]
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert all(units[k] == unit for k, (unit, _) in tracing.LAYER_METRICS.items())


def _small_ops(workdir):
    tri = instances.ordered_triangles(2, 20, seed=5)
    ops = [
        workloads.LibraryOp(f"tri-{r}-{o}", tri, "fpt.optimize_fpt", r, o)
        for r in ("any", "max")
        for o in ("bp", "ba")
    ]
    d2 = instances.degree_two(
        ((PATH, 21), (ORDERED_ODD_CYCLE, 9), (UNORDERED_ODD_CYCLE, 7)), seed=5
    )
    for r in ("any", "max"):
        ops.append(
            workloads.LibraryOp(
                f"d2-{r}", d2, f"shortlist.solve_shortlist_{r}", r, "bp",
                "d2-any" if r == "max" else None,
            )
        )
    drawn = generate(GenSpec(n=60, model=GenModel.SMI_UNIFORM, list_cap=4, seed=5))
    path = workdir / "smi.dsm"
    path.write_text(fileio.serialize_instance(drawn.instance, frozenset({3, 17, 40})))
    for regime, budget in (("any", 0), ("any", None), ("max", None)):
        solve = workloads.CliSolveOp(
            f"cli-{regime}-{budget}", path, workdir / f"{regime}-{budget}.out", regime, "bp", budget
        )
        ops += [solve, workloads.CliVerifyOp(solve.label + "-verify", solve)]
    return ops


def test_traced_round_gives_the_untraced_answers(tmp_path):
    ops = _small_ops(tmp_path)
    first = run._run_round(ops)
    assert run._check(first, workloads.WrongAnswer) == {}
    reference = run._signatures(first)
    assert len(reference) == len(ops)
    t = tracing.Tracer(tracing.devmatch_modules())
    t.install()
    try:
        traced = run._run_round(ops, t)
    finally:
        t.uninstall()
    assert all(message is None for _, message in run._summary(traced, reference))
    m = t.metrics(t.totals())
    assert m["cli.exit.0"] == 6
    # fileio.bytes counts the instance text only, not the --out files the
    # verifies parse
    assert m["fileio.parse_matching.s"] > 0
    size = len((tmp_path / "smi.dsm").read_bytes())
    assert m["fileio.bytes"] == m["fileio.parse_instance.calls"] * size > 0
    assert m["cli.engine.bipartite"] + m["cli.engine.fpt"] == 3
    assert m["shortlist.components"] == 6  # 3 components, decomposed by both solvers


def test_a_wrong_answer_fails_the_round(tmp_path):
    ops = _small_ops(tmp_path)[:1]
    records = run._run_round(ops)
    op, elapsed, outcome, error = records[0]
    wrong = [(op, elapsed, core.SolveOutcome(outcome.matching, outcome.value + 1, "x"), None)]
    assert list(run._check(wrong, workloads.WrongAnswer)) == [op.label]
    summary = run._summary(wrong, run._signatures(records))
    assert summary[0][0] == op.label and summary[0][1] is not None


def test_every_failed_record_counts_once(tmp_path):
    ops = _small_ops(tmp_path)[:2]
    records = run._run_round(ops)
    (op, elapsed, outcome, _), right = records
    wrong = [(op, elapsed, core.SolveOutcome(outcome.matching, outcome.value + 1, "x"), None), right]
    checked = run._check(wrong, workloads.WrongAnswer)
    reference = run._signatures(wrong)
    # the same wrong answer in three rounds is three failed records, one message
    summaries = [run._summary(wrong, reference) for _ in range(3)]
    assert run._failures(summaries, checked) == (3, list(checked.values()))
    # a raise in a later round is one more failed record with its own message
    raised = [(op, elapsed, None, ValueError("boom")), right]
    failed, messages = run._failures(summaries + [run._summary(raised, reference)], checked)
    assert failed == 4 and len(messages) == 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_builders_agree_with_the_oracle(name, tmp_path):
    assert workloads.WORKLOADS[name].crosscheck(7, tmp_path) == []


def test_same_seed_same_inputs(tmp_path):
    build = workloads.WORKLOADS["shortlist-long"].build
    first = workloads.digest(build(3, tmp_path))
    assert first == workloads.digest(build(3, tmp_path))
    assert first != workloads.digest(build(4, tmp_path))
    assert workloads.cli_file_specs(3) == workloads.cli_file_specs(3)
    assert all(spec["n"] <= setup_child.MAX_AGENTS for spec in workloads.cli_file_specs(3))


def test_latency_is_read_per_label_over_whole_rounds(tmp_path):
    op_a, op_b = _small_ops(tmp_path)[:2]
    rounds = [[(op_a, 0.001, None, None), (op_b, 0.004, None, None)],
              [(op_a, 0.003, None, None), (op_b, 0.008, None, None)]]
    assert run._label_best(rounds) == pytest.approx([1.0, 4.0])
    calls = []
    assert run._timed_rounds(0.0, 3, lambda: calls.append(1)) == 3 == len(calls)


def test_baseline_ops_stay_out_of_the_rounds(tmp_path):
    ops = workloads.WORKLOADS["shortlist-long"].build(3, tmp_path)
    baselines = {op.label for op in ops if op.baseline}
    assert baselines == {"path-2001-max-bp", "path-4001-max-bp"}
    # each baseline's any-regime partner is timed in the rounds
    assert {op.at_most for op in ops if op.baseline} <= {op.label for op in ops}
    assert len(ops) == len({op.label for op in ops})
