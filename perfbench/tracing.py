"""Per-layer tracing that wraps devmatch's public functions from outside.

A `Tracer` replaces each probed function with one wrapper object, in every
module namespace that holds a reference to it (`from .core import
verify_solution` copies the name into `fpt` and `cli`), and restores the
originals on `uninstall`.  A wrapper records calls, total time (`.s`) and
self time (`.self_s`: total minus the time spent in wrapped calls nested
inside it), plus counts read from the arguments or the result.  Wrappers
only record while the tracer is active, which the benchmark sets around each
timed op, so correctness checks made by the benchmark itself do not count.

A probed name that no longer resolves is listed in `absent`, and the metrics
it feeds are left out instead of reading as zero.

Which end-to-end number each layer should move:

- fpt.* and core.instance_init.*: ops_per_s and op_ms.p50 on tri-search;
  flat on cli-random, where fpt.configs_per_solve is about 1; absent on
  shortlist-long.
- core.blocking_report.*: op_ms.p50 on shortlist-long.
- core.verify_solution.*, core.validate_instance.s and fileio.*: op_ms.p50
  on cli-random.
- classic.*: op_ms.tail on cli-random and the max-regime share of
  tri-search.
- shortlist.*: ops_per_s and op_ms.tail on shortlist-long, which is run by
  hand; small on cli-random, where only the pathcycle files reach them.
- cli.engine.* and cli.exit.*: counts that must not change when engine
  choice moves into the library.

Nothing waits on a queue or a lock, so no layer has a wait time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from types import ModuleType
from typing import Callable


@dataclass(frozen=True)
class Probe:
    """One wrapped function: layer metric prefix and dotted target.

    target is "module.attr" or "module.Class.attr" relative to the devmatch
    package.  record, when set, is called as record(stats, args, result,
    parent) after each traced call, where parent is the prefix of the
    innermost enclosing probe (or None).
    """

    name: str
    target: str
    record: Callable | None = None


def _record_truncate(stats, args, result, parent):
    stats["fpt.truncate.rejected"] += bool(result.rejected)


def _record_extend(stats, args, result, parent):
    stats["fpt.extend.accepted"] += result is not None


def _record_bipartite(stats, args, result, parent):
    stats["fpt.bipartite.hits"] += result is not None


def _record_mwm(stats, args, result, parent):
    stats["classic.max_weight_matching.vertices"] += len(args[0].vertices)


def _record_decompose(stats, args, result, parent):
    """Count components, and the maximum-matching candidates the max solver scores.

    solve_shortlist_max scores one candidate per even path, one per odd
    position of an odd path, two per even cycle and one per agent of an odd
    cycle; only decompositions made for it count towards candidates.
    """
    stats["shortlist.components"] += (
        len(result.paths) + len(result.even_cycles) + len(result.odd_cycles)
    )
    if parent == "shortlist.solve_max":
        stats["shortlist.candidates"] += (
            sum(1 if len(p) % 2 == 0 else (len(p) + 1) // 2 for p in result.paths)
            + 2 * len(result.even_cycles)
            + sum(len(c) for c in result.odd_cycles)
        )


def _record_parse(stats, args, result, parent):
    stats["fileio.bytes"] += len(args[0].encode())


def _record_cli(stats, args, result, parent):
    stats[f"cli.exit.{result}"] += 1


PROBES = (
    Probe("fpt.solve_fpt", "fpt.solve_fpt"),
    Probe("fpt.enumerate", "fpt.enumerate_configurations"),
    Probe("fpt.truncate", "fpt.truncate_and_collect", _record_truncate),
    Probe("fpt.extend", "fpt.extend_via_weighted_matching", _record_extend),
    Probe("fpt.bipartite", "fpt.solve_bipartite_restriction", _record_bipartite),
    Probe("core.instance_init", "core.Instance.__post_init__"),
    Probe("core.blocking_report", "core.blocking_report"),
    Probe("core.verify_solution", "core.verify_solution"),
    Probe("core.validate_instance", "core.validate_instance"),
    Probe("classic.max_weight_matching", "classic.max_weight_matching", _record_mwm),
    Probe("classic.max_cardinality_size", "classic.max_cardinality_size"),
    Probe("classic.gale_shapley", "classic.gale_shapley"),
    Probe("shortlist.decompose", "shortlist.decompose", _record_decompose),
    Probe("shortlist.solve_any", "shortlist.solve_shortlist_any"),
    Probe("shortlist.solve_max", "shortlist.solve_shortlist_max"),
    Probe("fileio.parse_instance", "fileio.parse_instance", _record_parse),
    Probe("fileio.parse_matching", "fileio.parse_matching"),
    Probe("cli.main", "cli.main", _record_cli),
)

# The per-layer metrics the benchmark reports, with their units.  Each maps to
# the probe whose absence removes it; derived ones are computed in metrics().
LAYER_METRICS = {
    "fpt.solve_fpt.calls": ("count", "fpt.solve_fpt"),
    "fpt.solve_fpt.self_s": ("s", "fpt.solve_fpt"),
    "fpt.enumerate.configs": ("count", "fpt.enumerate"),
    "fpt.enumerate.s": ("s", "fpt.enumerate"),
    "fpt.floor_skipped": ("count", ("fpt.enumerate", "fpt.truncate")),
    "fpt.truncate.calls": ("count", "fpt.truncate"),
    "fpt.truncate.self_s": ("s", "fpt.truncate"),
    "fpt.truncate.rejected": ("count", "fpt.truncate"),
    "fpt.memo_skipped": ("count", ("fpt.truncate", "fpt.extend")),
    "fpt.extend.calls": ("count", "fpt.extend"),
    "fpt.extend.self_s": ("s", "fpt.extend"),
    "fpt.extend.accepted": ("count", "fpt.extend"),
    "fpt.accept_ratio": ("ratio", ("fpt.enumerate", "fpt.extend")),
    "fpt.configs_per_solve": ("ratio", ("fpt.enumerate", "fpt.solve_fpt")),
    "fpt.bipartite.calls": ("count", "fpt.bipartite"),
    "fpt.bipartite.s": ("s", "fpt.bipartite"),
    "fpt.bipartite.hits": ("count", "fpt.bipartite"),
    "core.instance_init.calls": ("count", "core.instance_init"),
    "core.instance_init.s": ("s", "core.instance_init"),
    "core.blocking_report.calls": ("count", "core.blocking_report"),
    "core.blocking_report.s": ("s", "core.blocking_report"),
    "core.verify_solution.calls": ("count", "core.verify_solution"),
    "core.verify_solution.self_s": ("s", "core.verify_solution"),
    "core.validate_instance.s": ("s", "core.validate_instance"),
    "classic.max_weight_matching.calls": ("count", "classic.max_weight_matching"),
    "classic.max_weight_matching.s": ("s", "classic.max_weight_matching"),
    "classic.max_weight_matching.vertices": ("count", "classic.max_weight_matching"),
    "classic.max_cardinality_size.calls": ("count", "classic.max_cardinality_size"),
    "classic.max_cardinality_size.s": ("s", "classic.max_cardinality_size"),
    "classic.gale_shapley.s": ("s", "classic.gale_shapley"),
    "shortlist.decompose.s": ("s", "shortlist.decompose"),
    "shortlist.components": ("count", "shortlist.decompose"),
    "shortlist.candidates": ("count", "shortlist.decompose"),
    "shortlist.solve_any.self_s": ("s", "shortlist.solve_any"),
    "shortlist.solve_max.self_s": ("s", "shortlist.solve_max"),
    "fileio.parse_instance.calls": ("count", "fileio.parse_instance"),
    "fileio.parse_instance.self_s": ("s", "fileio.parse_instance"),
    "fileio.bytes": ("B", "fileio.parse_instance"),
    "fileio.parse_matching.s": ("s", "fileio.parse_matching"),
    "cli.main.self_s": ("s", "cli.main"),
    "cli.engine.shortlist": ("count", "cli.main"),
    "cli.engine.fpt": ("count", "cli.main"),
    "cli.engine.bipartite": ("count", "cli.main"),
    "cli.exit.0": ("count", "cli.main"),
    "cli.exit.1": ("count", "cli.main"),
    "cli.exit.3": ("count", "cli.main"),
}


def devmatch_modules() -> dict[str, ModuleType]:
    """The loaded devmatch package and submodules, keyed by their last name part."""
    return {
        name.split(".")[-1]: module
        for name, module in sys.modules.items()
        if name == "devmatch" or name.startswith("devmatch.")
    }


def _resolve(modules: dict[str, ModuleType], target: str):
    """(owner, attr, function) for a dotted target, or None when it is gone."""
    head, *rest = target.split(".")
    owner = modules.get(head)
    if owner is None:
        return None
    for part in rest[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = inspect.getattr_static(owner, rest[-1], None)
    if not callable(fn):
        return None
    return owner, rest[-1], fn


class Tracer:
    """Installs one wrapper per probe and accumulates stats per op label.

    modules maps short names ("core", "fpt", ...) to the devmatch modules;
    every one of them is searched for references to each probed function.
    """

    def __init__(self, modules: dict[str, ModuleType]):
        self.modules = modules
        self.absent: list[str] = []
        self.wrappers: dict[str, Callable] = {}
        self.active = False
        self.label = ""
        self.by_label: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        for probe in PROBES:
            found = _resolve(self.modules, probe.target)
            if found is None:
                self.absent.append(probe.name)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(probe, fn)
            self.wrappers[probe.name] = wrapper
            if isinstance(owner, type):
                self._swap(owner, attr, wrapper)
                continue
            for module in self.modules.values():
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._swap(module, name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
        self.wrappers.clear()

    def _swap(self, owner, name, wrapper) -> None:
        self._restore.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, wrapper)

    def count(self, metric: str, amount: int = 1) -> None:
        self.by_label[self.label][metric] += amount

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, elapsed: float) -> Counter:
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += elapsed
        stats = self.by_label[self.label]
        stats[f"{frame[0]}.s"] += elapsed
        stats[f"{frame[0]}.self_s"] += elapsed - frame[1]
        return stats

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        tracer = self
        name = probe.name
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if not tracer.active:
                    yield from inner
                    return
                while True:
                    frame = tracer._enter(name)
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        stats = tracer._leave(frame, perf_counter() - start)
                    stats[f"{name}.configs"] += 1
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = tracer._enter(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stats = tracer._leave(frame, perf_counter() - start)
                stats[f"{name}.calls"] += 1
            if probe.record is not None:
                probe.record(stats, args, result, parent)
            return result

        return wrapper

    def totals(self) -> Counter:
        out: Counter = Counter()
        for stats in self.by_label.values():
            out.update(stats)
        return out

    def metrics(self, stats: Counter, scale: float = 1.0) -> dict[str, float]:
        """The LAYER_METRICS present in stats, counts and times divided by scale.

        Metrics fed by an absent probe are omitted.  A ratio reads 0 when
        its denominator is 0.
        """

        def ratio(num: str, den: str) -> float:
            return stats[num] / stats[den] if stats[den] else 0.0

        derived = {
            "fpt.floor_skipped": (stats["fpt.enumerate.configs"] - stats["fpt.truncate.calls"])
            / scale,
            "fpt.memo_skipped": (
                stats["fpt.truncate.calls"]
                - stats["fpt.truncate.rejected"]
                - stats["fpt.extend.calls"]
            )
            / scale,
            "fpt.accept_ratio": ratio("fpt.extend.accepted", "fpt.enumerate.configs"),
            "fpt.configs_per_solve": ratio("fpt.enumerate.configs", "fpt.solve_fpt.calls"),
        }
        out = {}
        for metric, (_, sources) in LAYER_METRICS.items():
            if isinstance(sources, str):
                sources = (sources,)
            if any(s in self.absent for s in sources):
                continue
            out[metric] = derived[metric] if metric in derived else stats[metric] / scale
        return out
