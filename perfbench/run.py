#!/usr/bin/env python3
"""Run one workload of the devmatch benchmark and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload tri-search --seed 1 --seconds 50 --trace 0

Workloads: tri-search, shortlist-long, cli-random (see workloads.py).
BENCHMARK.json lists tri-search and cli-random; shortlist-long is run by
hand.  The load is a closed loop with one client in one process and no
threads: each op starts when the previous one has returned.  A run times
whole rounds of ops for --seconds of wall time: it starts another round
while the rounds so far, plus one more of their mean length, fit in
--seconds, and it times at least MIN_ROUNDS.  Every round is the same ops,
so the mix does not depend on the round count.  The rounds are pinned to
this process's CPUs in turn, one CPU a round.  Before each round the runner
collects and freezes the objects alive so far, so the cyclic garbage
collector does not rescan the benchmark's own inputs inside the timed ops.

Latency is read per op label: each label's best (lowest) latency over the
run's rounds, as timeit reports the best of its repeats, then the median or
tail percentile over the labels of a round.  The host's speed drifts by tens
of percent over tens of seconds, so a mean or a pooled median over a run
mostly reads how long the run spent slow; a change in the program moves
every repeat, the best one too.  The mean over the run is printed as well,
but it is not a metric.

End-to-end metrics (--trace 0):

- ops_per_s: the ops of one round per second of their summed best
  latencies, scaled by the share of ops that did not raise.
- op_ms.p50: the median over the round's op labels of each label's best
  latency.
- op_ms.tail: the workload's fixed tail percentile (see WORKLOADS in
  workloads.py) of the same per-label best latencies, chosen to keep at
  least ten labels beyond it and to fall inside a block of like ops.
- setup_s: the median of SETUP_REPS set-ups.  One set-up is a child process
  that imports devmatch (and writes the cli-random generator files, so the
  generator's quadratic memory peak stays out of peak_rss_mb), plus building
  the round's ops here.
- peak_rss_mb: ru_maxrss of this process after the timed rounds, read
  before the answers are checked.
- failed_frac: failed op records over attempted ones.  It is printed but not
  declared in BENCHMARK.json, because it is 0 whenever the program is
  correct.

Correctness gate, outside the timed region: the first round's answers are
checked in full (each op's check() in workloads.py); every later round must
reproduce them exactly.  An op record fails if it raises, if it differs from
the first round, or if its label failed the check.  Before timing, small
instances of each workload's shape are cross-checked against the oracle;
those failures are reported apart from the ops.  Any failure sets correct
to false and the exit code to 1.

--trace 1 alternates untraced and traced rounds for --seconds (at least one
pair), then times each baseline op (ROADMAP's slow baseline instances, kept
out of the rounds) once untraced and once traced.  It prints the per-layer
metrics of tracing.py: one row per op label, per traced run of that op,
with the label's untraced median op time; then the totals divided by the
number of traced rounds (so the baseline ops' single run is spread over
them) and trace.overhead_frac (traced over untraced wall time, minus 1).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPS = 3
MIN_ROUNDS = 3

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "failed_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import devmatch from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "devmatch" / "__init__.py").is_file():
        print("error: no devmatch package under src/ next to the benchmark", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import devmatch

    if Path(devmatch.__file__).resolve().parent != (SRC / "devmatch").resolve():
        print(f"error: devmatch was imported from {devmatch.__file__}", file=sys.stderr)
        sys.exit(2)


def _set_up(workload, seed: int, base: Path):
    """Set up SETUP_REPS times; return the median time, the ops and their workdir.

    One repetition is a child process that imports devmatch (and writes the
    generator files, for cli-random) plus building the round's ops here.
    """
    times = []
    for rep in range(SETUP_REPS):
        workdir = base / f"setup{rep}"
        workdir.mkdir()
        command = [sys.executable, str(HERE / "setup_child.py"), str(SRC)]
        if workload.files is not None:
            command += [str(workdir), json.dumps(workload.files(seed))]
        start = perf_counter()
        subprocess.run(command, check=True, timeout=150, stdin=subprocess.DEVNULL)
        ops = workload.build(seed, workdir)
        times.append(perf_counter() - start)
    return statistics.median(times), ops, workdir


def _run_round(ops, tracer=None):
    """Time every applicable op once; return (op, seconds, result, error) records.

    Everything alive before the round (the inputs, the answers recorded so
    far) is collected and frozen first, so the cyclic garbage collector does
    not rescan the benchmark's own data inside the timed ops.
    """
    gc.collect()
    gc.freeze()
    records = []
    for op in ops:
        call = op.prepare()
        if call is None:
            continue
        if tracer is not None:
            tracer.label = op.label
            tracer.active = True
        start = perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error = None, exc
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.active = False
            if error is None:
                for metric, amount in op.counts(result).items():
                    tracer.count(metric, amount)
        records.append((op, elapsed, result, error))
    return records


def _check(records, wrong_answer):
    """{label: failure message} for one round whose every answer is checked in full."""
    results = {op.label: result for op, _, result, error in records if error is None}
    failures = {}
    for op, _, result, error in records:
        if error is not None:
            failures[op.label] = f"{op.label}: raised {error!r}"
            continue
        try:
            op.check(result, results)
        except wrong_answer as exc:
            failures[op.label] = str(exc)
    return failures


def _signatures(records):
    return {op.label: op.signature(result) for op, _, result, error in records if error is None}


def _summary(records, reference):
    """(label, failure message or None) per record, against the reference answers.

    Only the summary of a round is kept, not its results, so later rounds
    add nothing to the peak RSS.
    """
    out = []
    for op, _, result, error in records:
        if error is not None:
            message = f"{op.label}: raised {error!r}"
        elif reference.get(op.label) != op.signature(result):
            message = f"{op.label}: answer differs from the first round"
        else:
            message = None
        out.append((op.label, message))
    return out


def _failures(summaries, checked):
    """(failed op records, failure messages) over every round's summary.

    A record fails if it raised, if it differs from the first round, or if
    its label failed the first round's check: a wrong answer that repeats
    every round fails in every round.
    """
    failed, messages = 0, dict.fromkeys(checked.values())
    for summary in summaries:
        for label, message in summary:
            if message is not None or label in checked:
                failed += 1
            if message is not None:
                messages[message] = None
    return failed, list(messages)


def _provenance(workload, seed, ops_digest):
    import networkx

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, stdin=subprocess.DEVNULL,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "workload": workload.name,
        "seed": seed,
        "input_sha256": ops_digest,
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def _timed_rounds(seconds, minimum, run):
    """Call run() for whole rounds while they fit in seconds; at least minimum.

    Round i runs pinned to the i-th of this process's CPUs, in turn: the
    host's cores drift in speed independently, so each op's best time comes
    from whichever core was fast while it ran.  The affinity is restored
    afterwards.
    """
    cpus = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    count = 0
    try:
        while True:
            _pin({cpus[count % len(cpus)]})
            run()
            count += 1
            elapsed = perf_counter() - start
            if count >= minimum and elapsed * (count + 1) / count > seconds:
                return count
    finally:
        _pin(cpus)


def _pin(cpus):
    """Pin this process to the given CPUs; where that is refused, run unpinned."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _label_best(records_by_round):
    """Each op label's best (lowest) latency in ms over the rounds."""
    times: dict[str, list[float]] = {}
    for records in records_by_round:
        for op, elapsed, _, _ in records:
            times.setdefault(op.label, []).append(elapsed * 1000)
    return [min(v) for v in times.values()]


def _measure(workload, ops, seconds, wrong_answer):
    """Time untraced rounds for the given seconds.

    The first round's answers are checked after the peak RSS is read, so
    the checker's own memory stays out of peak_rss_mb.
    """
    rounds: list[list] = []
    summaries: list[list] = []
    reference = {}

    def one_round():
        records = _run_round(ops)
        if not rounds:
            reference.update(_signatures(records))
            rounds.append(records)
        else:
            # Later rounds keep only their timings; the answers are summarised.
            rounds.append([(op, elapsed, None, error) for op, elapsed, _, error in records])
        summaries.append(_summary(records, reference))

    count = _timed_rounds(seconds, MIN_ROUNDS, one_round)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, failures = _failures(summaries, _check(rounds[0], wrong_answer))
    raised = sum(error is not None for records in rounds for _, _, _, error in records)
    durations = [elapsed for records in rounds for _, elapsed, _, _ in records]
    attempted = len(durations)
    best = _label_best(rounds)
    metrics = {
        "ops_per_s": len(best) * (1 - raised / attempted) / sum(best) * 1000,
        "op_ms.p50": statistics.median(best),
        "op_ms.tail": statistics.quantiles(best, n=100, method="inclusive")[workload.tail - 1],
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"mean over the run: ops_per_s {(attempted - raised) / sum(durations):.6g} "
          f"op_ms {1000 * sum(durations) / attempted:.6g}")
    beyond = len(best) * (100 - workload.tail) / 100
    print(f"rounds {count} ops {attempted} labels {len(best)} "
          f"tail p{workload.tail} ({beyond:.1f} labels beyond)")
    if beyond < 10:
        print(f"warning: fewer than ten labels beyond p{workload.tail}")
    return metrics, failed, failures, attempted


def _measure_traced(ops, baselines, seconds, wrong_answer):
    """Alternate untraced and traced rounds, then the baseline ops once each.

    Per-layer metrics are per traced round.
    """
    from perfbench import tracing

    tracer = tracing.Tracer(tracing.devmatch_modules())
    pairs: list[tuple[list, list]] = []

    def traced_round(round_ops):
        tracer.install()
        try:
            return _run_round(round_ops, tracer)
        finally:
            tracer.uninstall()

    def one_pair():
        pairs.append((_run_round(ops), traced_round(ops)))

    count = _timed_rounds(seconds, 1, one_pair)
    if baselines:
        pairs.append((_run_round(baselines), traced_round(baselines)))
    first = pairs[0][0] + (pairs[-1][0] if baselines else [])
    reference = _signatures(first)
    summaries, attempted = [], 0
    untraced_s = traced_s = 0.0
    untraced_ms: dict[str, list[float]] = {}
    for records, traced in pairs:
        summaries += [_summary(records, reference), _summary(traced, reference)]
        untraced_s += sum(elapsed for _, elapsed, _, _ in records)
        traced_s += sum(elapsed for _, elapsed, _, _ in traced)
        for op, elapsed, _, _ in records:
            untraced_ms.setdefault(op.label, []).append(elapsed * 1000)
        attempted += len(records) + len(traced)
    failed, failures = _failures(summaries, _check(first, wrong_answer))
    print(f"pairs {count} baseline ops {len(baselines)}")
    if tracer.absent:
        print("absent probes: " + " ".join(tracer.absent))
    for label in sorted(untraced_ms):
        row = {"row": label, "op_ms.p50": statistics.median(untraced_ms[label])}
        row.update(tracer.metrics(tracer.by_label[label], scale=len(untraced_ms[label])))
        print(json.dumps(row))
    metrics = tracer.metrics(tracer.totals(), scale=count)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
    units["trace.overhead_frac"] = "frac"
    return metrics, units, failed, failures, attempted


def main(argv=None) -> int:
    args = _parse(argv)
    # A terminated run still removes its work directory on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _import_program()
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(dir=WORK_ROOT, prefix=f"{workload.name}-{args.seed}-"))
    try:
        setup_s, ops, workdir = _set_up(workload, args.seed, base)
        crosscheck = workload.crosscheck(args.seed, workdir)
        ops_digest = workloads.digest(ops)
        print(json.dumps({"provenance": _provenance(workload, args.seed, ops_digest)}))
        baselines = [op for op in ops if op.baseline]
        ops = [op for op in ops if not op.baseline]
        if args.trace:
            metrics, units, failed, failures, attempted = _measure_traced(
                ops, baselines, args.seconds, workloads.WrongAnswer
            )
        else:
            metrics, failed, failures, attempted = _measure(
                workload, ops, args.seconds, workloads.WrongAnswer
            )
            units = END_TO_END_UNITS
            metrics["setup_s"] = setup_s
            metrics["failed_frac"] = failed / attempted
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    for message in crosscheck:
        print(f"FAIL cross-check {message}", file=sys.stderr)
    for message in failures:
        print(f"FAIL {message}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": not (crosscheck or failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in wanted
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
