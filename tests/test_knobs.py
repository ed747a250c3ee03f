"""Inventory of the library's knobs and callers.

The table below lists, for every public function and class defined in the
modules that indlab.__all__ names (it names only modules), each parameter
that has a default, as
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
"""


def _callables():
    """(qualified name, callable) for every public function and class reached."""
    seen = {}
    for name in indlab.__all__:
        module = getattr(indlab, name)
        for k, v in vars(module).items():
            if (not k.startswith("_") and getattr(v, "__module__", None) == module.__name__
                    and (inspect.isfunction(v) or inspect.isclass(v))):
                seen[f"{name}.{v.__qualname__}"] = v
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


def test_the_package_exports_only_modules():
    assert all(isinstance(getattr(indlab, name), types.ModuleType) for name in indlab.__all__)


def test_knob_inventory_matches_the_frozen_table():
    assert knob_inventory() == KNOBS.split("\n")[1:-1]


def _reads() -> tuple[set[tuple[str, str]], set[str]]:
    """The (module, name) pairs read through their own module, and the names
    read as an attribute of anything, in src/indlab and in bench/.

    A module-level name is read through its module when it is imported from
    that module, read as an attribute of a name bound to that module (such as
    tm.run_machine), or read inside that module outside its own definition.
    """
    src = Path(indlab.__file__).parent
    modules = {f.stem for f in src.glob("*.py")}
    files = [*src.glob("*.py"), *(Path(__file__).resolve().parents[1] / "bench").glob("*.py")]
    reads, attributes = set(), set()
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        bound = {}  # a local name -> the indlab module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "indlab"
                                                     or node.module.startswith("indlab.")):
                source = (node.module or "").removeprefix("indlab").lstrip(".")
                for alias in node.names:
                    if source:
                        reads.add((source, alias.name))
                    elif alias.name in modules:
                        bound[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
        reads |= {(bound[node.value.id], node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in bound}
        if path.parent == src:
            for stmt in tree.body:
                reads |= {(path.stem, node.id) for node in ast.walk(stmt)
                          if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                          and node.id != getattr(stmt, "name", None)}
    return reads, attributes


def test_every_public_name_has_a_caller():
    # A class member counts as called when read as an attribute of anything:
    # a local variable of the same name does not call a method.  A module's
    # own name counts only when read through that module.
    reads, attributes = _reads()
    uncalled = set()
    for q in _callables():
        owner, name = q.rsplit(".", 1)
        if not (name in attributes if "." in owner else (owner, name) in reads):
            uncalled.add(q)
    assert not uncalled


def test_every_imported_name_is_read():
    # __init__ reads the modules it imports through __all__; a __future__
    # import is a compiler switch, not a name
    src = Path(indlab.__file__).parent
    unread = set()
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if path.stem == "__init__":
            read |= set(indlab.__all__)
        unread |= {f"{path.stem}.{name}" for name in imported - read}
    assert not unread
