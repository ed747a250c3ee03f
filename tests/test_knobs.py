"""Inventory of the library's knobs: every parameter with a default.

The table below lists, for every public function and class that
indlab.__all__ reaches (the names it exports, and the public members of the
modules it exports), each parameter that has a default, as
"module.qualname: name=default".  A class contributes its constructor and
the public methods it defines.  A new option therefore shows up as a
one-line diff here, and a removed one as a deleted line.
"""

import inspect
import types

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
hv.Sampler.constant: value=0
hv.Sampler.prng: probs=None
hv.bohm_measure: bin_width=1.0
ks.Q2: q=0
ks.Ray.from_components: name=''
ks.Ray: exact=None
ks.Ray: name=''
ks.SearchStats: max_depth=0
ks.SearchStats: nodes=0
machine.enumerate_domain: output_limit=1048576
machine.enumerate_domain: output_prefix=None
machine.enumerate_domain: timeout_log=None
machine.prog_champernowne: start_at_one=False
machine.run_machine: output_limit=1048576
randomness.ComplexityEstimate: unresolved_bits_consumed=()
randomness.TestReport: parameters=<factory>
randomness.TestReport: skipped=False
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
