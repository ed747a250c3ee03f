"""Inventory of the library's knobs and callers.

The table below lists, for every public function and class that
indlab.__all__ reaches (the names it exports, and the public members of the
modules it exports), each parameter that has a default, as
"module.qualname: name=default".  A class contributes its constructor and
the public methods it defines.  A new option therefore shows up as a
one-line diff here, and a removed one as a deleted line.  Each of those
public names must also be used by the library or the benchmark.
"""

import ast
import inspect
import types
from pathlib import Path

import indlab

KNOBS = """
bell.MismatchFunctional: name='custom'
bell.MismatchFunctional: perfect_correlation=False
bell.TrialSet: lam=None
bell.TrialSet: metadata=None
bell.run_bipartite: hv_ensemble=None
hv.HVModel: name='model'
hv.HVModel: target=None
hv.HVSpace: interval=None
hv.Sampler: probs=None
hv.Sampler: seed=None
ks.Q2: q=0
ks.Ray: name=''
ks.SearchStats: max_depth=0
ks.SearchStats: nodes=0
machine.enumerate_domain: output_limit=1048576
machine.enumerate_domain: output_prefix=None
machine.enumerate_domain: timeout_log=None
machine.prog_champernowne: start_at_one=False
machine.run_machine: output_limit=1048576
randomness.ComplexityEstimate: unresolved_bits_consumed=()
randomness.k_upper_bound: budget=None
sequences.SequenceSource: alphabet_size=2
sequences.champernowne: start_at_one=False
sequences.champernowne_text: start_at_one=False
"""


def _callables():
    """(qualified name, callable) for every public function and class reached."""
    seen = {}
    for name in indlab.__all__:
        obj = getattr(indlab, name)
        if isinstance(obj, types.ModuleType):
            members = [v for k, v in vars(obj).items() if not k.startswith("_")
                       and getattr(v, "__module__", None) == obj.__name__]
        else:
            members = [obj]
        for m in members:
            if inspect.isfunction(m) or inspect.isclass(m):
                seen[f"{m.__module__.removeprefix('indlab.')}.{m.__qualname__}"] = m
    for qualname, obj in list(seen.items()):
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member) and not attr.startswith("_"):
                    seen[f"{qualname}.{attr}"] = member
    return seen


def knob_inventory() -> list[str]:
    rows = []
    for qualname, obj in _callables().items():
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:  # no introspectable signature
            continue
        rows += [f"{qualname}: {p.name}={p.default!r}" for p in params
                 if p.default is not inspect.Parameter.empty]
    return sorted(rows)


def test_knob_inventory_matches_the_frozen_table():
    assert knob_inventory() == KNOBS.split("\n")[1:-1]


# Public names kept without a caller: the free-will-theorem reduction has no
# CLI subcommand yet (ROADMAP item 8).
UNCALLED_ALLOWED = {"ks.fwt_reduction_check", "ks.coloring_to_value_map", "ks.outcome_tuples"}


def _used_names() -> tuple[set[str], set[str]]:
    """The names read as a variable, and those read as an attribute, in
    src/indlab (its modules, not the re-exports of __init__.py) and in bench/."""
    src = Path(indlab.__file__).parent
    files = [f for f in src.glob("*.py") if f.name != "__init__.py"]
    files += (Path(__file__).resolve().parents[1] / "bench").glob("*.py")
    variables, attributes = set(), set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                variables.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return variables, attributes


def test_every_public_name_has_a_caller():
    # A class member counts as called only when read as an attribute: a
    # local variable of the same name does not call a method.
    variables, attributes = _used_names()
    uncalled = set()
    for q in _callables():
        owner, name = q.rsplit(".", 1)
        if name not in attributes and ("." in owner or name not in variables):
            uncalled.add(q)
    assert uncalled == UNCALLED_ALLOWED
