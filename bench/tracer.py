"""Spans and work counters around the public functions of each indlab layer.

The tracer measures the library from outside: it replaces each target
function with a wrapper on every ``indlab`` module namespace that binds it
(``hv`` imports ``k_upper_bound`` by name, ``indlab`` re-exports
``run_machine``, ...), and restores the originals on exit.  A span records
name, start, end, busy time, parent span and workload; spans stay in memory
until the pass ends.  A generator's busy time counts only the time spent
inside its ``next()`` calls, so work done by the consumer between items is
not charged to the generator.

Counters are read from arguments and return values, never from program
internals, so a later change to a layer cannot silently redefine them.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

# (indlab module, function) pairs to wrap.  The span name is the module and
# the function, without a class name or the CLI's "cmd_" prefix.
TARGETS = [
    ("cli", "dispatch"),
    ("cli", "cmd_generate"),
    ("cli", "cmd_analyze"),
    ("cli", "cmd_komplexity"),
    ("cli", "cmd_omega"),
    ("cli", "cmd_hv"),
    ("cli", "cmd_bell"),
    ("cli", "cmd_ks"),
    ("cli", "cmd_report"),
    ("machine", "enumerate_domain"),
    ("machine", "run_machine"),
    ("randomness", "omega_lower_bound"),
    ("randomness", "exact_k_small"),
    ("randomness", "prefix_free_violations"),
    ("randomness", "k_upper_bound"),
    ("randomness", "borel_normality_test"),
    ("randomness", "monkey_search"),
    ("sequences", "SequenceSource.prefix"),
    ("sequences", "write_sequence_file"),
    ("sequences", "read_sequence_file"),
    ("sequences", "block_frequencies"),
    ("bell", "run_bipartite"),
    ("bell", "save_trials_csv"),
    ("bell", "load_trials_csv"),
    ("bell", "no_signaling_check"),
    ("bell", "free_choice_check"),
    ("bell", "empirical_functional"),
    ("born", "equivalence_check"),
    ("hv", "scenario_one_audit"),
    ("hv", "scenario_two_audit"),
    ("hv", "run_model"),
    ("ks", "load_rays_file"),
    ("ks", "search_coloring"),
]

# Every per-layer metric the traced run reports: (name, unit, better).
# "<span>_s" is inclusive busy time, "<span>_self_s" excludes child spans.
LAYER_METRICS = [
    ("cli.import_s", "s", "lower"),
    ("cli.dispatch_self_s", "s", "lower"),
    ("cli.generate_s", "s", "lower"),
    ("cli.analyze_s", "s", "lower"),
    ("cli.komplexity_s", "s", "lower"),
    ("cli.omega_s", "s", "lower"),
    ("cli.hv_s", "s", "lower"),
    ("cli.bell_s", "s", "lower"),
    ("cli.ks_s", "s", "lower"),
    ("cli.report_s", "s", "lower"),
    ("machine.enumerate_domain_s", "s", "lower"),
    ("machine.entries", "count", "higher"),
    ("machine.unresolved_timeouts", "count", "lower"),
    ("machine.run_machine_s", "s", "lower"),
    ("machine.run_machine_calls", "count", "lower"),
    ("machine.run_machine_steps", "count", "lower"),
    ("machine.run_machine_bits", "count", "lower"),
    ("randomness.omega_lower_bound_self_s", "s", "lower"),
    ("randomness.exact_k_small_s", "s", "lower"),
    ("randomness.exact_k_small_calls", "count", "lower"),
    ("randomness.prefix_free_violations_s", "s", "lower"),
    ("randomness.exact_ratio", "ratio", "higher"),
    ("randomness.k_upper_bound_self_s", "s", "lower"),
    ("randomness.borel_normality_test_s", "s", "lower"),
    ("randomness.monkey_search_s", "s", "lower"),
    ("randomness.monkey_matches", "count", "higher"),
    ("sequences.prefix_s", "s", "lower"),
    ("sequences.write_sequence_file_s", "s", "lower"),
    ("sequences.read_sequence_file_s", "s", "lower"),
    ("sequences.block_frequencies_s", "s", "lower"),
    ("sequences.symbols", "count", "lower"),
    ("sequences.bytes_written", "bytes", "lower"),
    ("sequences.bytes_read", "bytes", "lower"),
    ("bell.run_bipartite_s", "s", "lower"),
    ("bell.save_trials_csv_s", "s", "lower"),
    ("bell.load_trials_csv_s", "s", "lower"),
    ("bell.no_signaling_check_s", "s", "lower"),
    ("bell.free_choice_check_s", "s", "lower"),
    ("bell.empirical_functional_s", "s", "lower"),
    ("bell.trials", "count", "higher"),
    ("bell.csv_bytes", "bytes", "lower"),
    ("born.equivalence_check_s", "s", "lower"),
    ("born.outcomes", "count", "higher"),
    ("born.tensor_dim", "count", "higher"),
    ("hv.scenario_one_audit_self_s", "s", "lower"),
    ("hv.scenario_two_audit_s", "s", "lower"),
    ("hv.run_model_s", "s", "lower"),
    ("ks.load_rays_file_s", "s", "lower"),
    ("ks.search_coloring_s", "s", "lower"),
    ("ks.nodes", "count", "lower"),
    ("ks.max_depth", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Layer counters, as opposed to span times and derived values.
COUNTER_NAMES = [name for name, unit, _ in LAYER_METRICS if unit in ("count", "bytes")]


def _run_machine(c, a, r):
    c["machine.run_machine_calls"] += 1
    c["machine.run_machine_steps"] += r.steps
    c["machine.run_machine_bits"] += r.bits_consumed


def _exact_k_small(c, a, r):
    c["randomness.exact_k_small_calls"] += 1


def _monkey_search(c, a, r):
    c["randomness.monkey_matches"] += len(r)


def _prefix(c, a, r):
    c["sequences.symbols"] += len(r)


def _write_sequence_file(c, a, r):
    c["sequences.bytes_written"] += os.path.getsize(a["path"])


def _read_sequence_file(c, a, r):
    c["sequences.bytes_read"] += os.path.getsize(a["path"])


def _run_bipartite(c, a, r):
    c["bell.trials"] += len(r)


def _save_trials_csv(c, a, r):
    c["bell.csv_bytes"] += os.path.getsize(a["path"])


def _equivalence_check(c, a, r):
    c["born.outcomes"] += r.outcome_count
    c["born.tensor_dim"] = max(c["born.tensor_dim"], r.dim ** r.n)


def _search_coloring(c, a, r):
    c["ks.nodes"] += r.stats.nodes
    c["ks.max_depth"] = max(c["ks.max_depth"], r.stats.max_depth)


# span name -> counter update(counters, bound arguments, return value)
ON_RETURN = {
    "machine.run_machine": _run_machine,
    "randomness.exact_k_small": _exact_k_small,
    "randomness.monkey_search": _monkey_search,
    "sequences.prefix": _prefix,
    "sequences.write_sequence_file": _write_sequence_file,
    "sequences.read_sequence_file": _read_sequence_file,
    "bell.run_bipartite": _run_bipartite,
    "bell.save_trials_csv": _save_trials_csv,
    "born.equivalence_check": _equivalence_check,
    "ks.search_coloring": _search_coloring,
}


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "busy")

    def __init__(self, span_id: int, name: str, parent: int | None, start: float):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.busy = 0.0


class Tracer:
    """Installs span wrappers on the indlab modules while used as a context."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {name: 0 for name in COUNTER_NAMES}
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        return span

    def _wrap_function(self, orig, name: str):
        on_return = ON_RETURN.get(name)
        sig = inspect.signature(orig) if on_return else None
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            tracer._stack.append(span)
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.busy = span.end - span.start
                tracer._stack.pop()
            if on_return:
                on_return(tracer.counters, sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _wrap_enumerate_domain(self, orig, name: str):
        sig = inspect.signature(orig)
        tracer = self
        counters = self.counters

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            log = sig.bind(*args, **kwargs).arguments.get("timeout_log")
            logged_before = len(log) if log is not None else 0
            span = tracer._open(name)
            it = orig(*args, **kwargs)
            try:
                while True:
                    tracer._stack.append(span)
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        span.end = time.perf_counter()
                        span.busy += span.end - t0
                        tracer._stack.pop()
                    counters["machine.entries"] += 1
                    yield item
            finally:
                if log is not None:
                    counters["machine.unresolved_timeouts"] += len(log) - logged_before

        return wrapper

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = {
            mod_name: mod for mod_name, mod in sys.modules.items()
            if mod is not None and (mod_name == "indlab" or mod_name.startswith("indlab."))
        }
        try:
            for module, attr in TARGETS:
                name = f"{module}.{attr.split('.')[-1].removeprefix('cmd_')}"
                owner = modules[f"indlab.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._replace(cls, meth, self._wrap_function(vars(cls)[meth], name))
                    continue
                orig = getattr(owner, attr)
                wrapper = (self._wrap_enumerate_domain(orig, name)
                           if name == "machine.enumerate_domain"
                           else self._wrap_function(orig, name))
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._replace(mod, key, wrapper)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- results ----------------------------------------------------------

    def span_records(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "parent": s.parent, "start": s.start,
             "end": s.end, "busy": s.busy, "workload": self.workload}
            for s in self.spans
        ]


def span_times(spans: list[dict]) -> dict[str, float]:
    """'<name>_s' (inclusive busy time) and '<name>_self_s' for every span name."""
    child_busy: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_busy[s["parent"]] += s["busy"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"] + "_s"] += s["busy"]
        out[s["name"] + "_self_s"] += s["busy"] - child_busy[s["id"]]
    return dict(out)
