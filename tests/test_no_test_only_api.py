"""No public name, method or knob in ``src/repro`` that only tests use.

Code with no production consumer is either adopted by a real path or
deleted. Production is every ``.py`` file under ``src/``,
``benchmarks/``, ``perfbench/`` and ``examples/``; ``tests/`` does not
count. The scans read code, not text: a name is used only through an
AST ``Name``, an ``Attribute``, an import, or an identifier-shaped
string constant (``getattr(obj, "name")``, ``perfbench``'s
``Layer(..., "simulate_step")``). Docstrings and comments do not count,
and neither do ``__all__``, the re-exports of a package ``__init__``
(its imports and other tuples of names) nor references inside the
definition itself.

Five scans over ``src/repro``:

* module-level public ``def``/``class`` (undecorated),
* module-level public ``def``/``class`` with decorators
  (``@register_schedule`` builders are reached through the registry),
* public module-level constants (assignments),
* public methods and properties of module-level classes: used when the
  name appears as an attribute or an identifier string,
* parameters that have a default: used when a production call of the
  function, class or method name passes it by keyword, by position at
  or past its index, or through ``*``/``**`` (taken as passing
  everything, except ``**NAME`` or ``**NAME[...]`` over a module-level
  dict literal, which passes only that literal's keys). A default that
  no production call overrides is a knob with one value in use.

Whatever stays on purpose is listed in a ``KEPT_*`` table with one
reason, and each table has a check that its entries are still flagged.
"""

import ast
import functools
import re
import textwrap
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
CONSUMER_DIRS = ("src", "benchmarks", "perfbench", "examples")
DEFINITIONS = "src/repro/"
#: Packages whose parameters the parameter scan leaves alone.
PARAM_SCAN_EXEMPT = ("src/repro/numerics/", "src/repro/attention/")

_NUMERICS = "§6.2 numerics reproduction (repro.numerics); its tests are the result"
_ATTENTION = "attention kernels (repro.attention) the numerics reproduction runs"
_CP_EMULATION = "§4 CP tensor emulation; its tests are the bitwise CP result"
_CP_LOADER = ("§4 integration loader (documents -> CP-local token views) "
              "that docs/paper_map.md maps")
_FAKE_SEAM = "seam where a test swaps in the frozen reference simulator"
_BUG_SEAM = "seam where a test plants a bug the campaign must catch"

#: Module-level public ``def``/``class`` names that only tests reference,
#: kept on purpose.
KEPT_TEST_ONLY = {
    "attention_heads_bitwise_partitionable": _NUMERICS,
    "cp_layer_backward": _NUMERICS,
    "cp_layer_forward": _NUMERICS,
    "is_bf16_representable": _NUMERICS,
    "tp_layer_backward": _NUMERICS,
    "tp_layer_forward_emulated_order": _NUMERICS,
    "tp_layer_forward_with_cache": _NUMERICS,
    "allowed_ranges": _ATTENTION,
    "flash_attention": _ATTENTION,
    "mask_area": _ATTENTION,
    "rows_mask": _ATTENTION,
    "emulated_order_backward": _CP_EMULATION,
    "local_kv_to_allgathered": _CP_EMULATION,
    "reassemble_from_cp_views": _CP_EMULATION,
    "TokenBatchLoader": _CP_LOADER,
    "cp_local_view": _CP_LOADER,
    "pp_output_release_savings": "the only §6.3 early-output-release "
                                 "reproduction (debug/memory_snapshot.py)",
    "assert_valid_trace": "checks every exported Perfetto trace",
    "survivability_report": "pins production behaviour through "
                            "tests/golden/resilience_survivability.json",
}

#: Public module-level constants that only tests reference, kept on purpose.
KEPT_CONSTANTS = {
    "PIPELINE_KINDS": "imported by a frozen oracle under tests/harness/",
    "ALL_FP32": _NUMERICS,
}

#: ``Class.method`` names that only tests call, kept on purpose.
KEPT_METHODS = {
    "MemorySnapshot.live_at_peak": "§6.3 memory-snapshot reproduction",
    "PipelineEmulator.peak_live_activations": _NUMERICS,
}

#: ``callable(param=)`` defaults that only tests override, kept on purpose.
KEPT_PARAMS = {
    "simulate_step(sim=)": _FAKE_SEAM,
    "run_synthetic_workload(sim=)": _FAKE_SEAM,
    "run_engine_fuzz(engine=)": _BUG_SEAM,
    "run_fuzz(build=)": _BUG_SEAM,
    "oracle_pp_numerics(precision=)": _BUG_SEAM,
    "main(argv=)": "the CLI entry point; tests pass argv, the shell does not",
    "plan_parallelism(max_pp=)": "passed by the frozen replan oracle "
                                 "(tests/harness/reference_replan.py)",
}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _is_definition_file(path: str) -> bool:
    return path.startswith(DEFINITIONS)


def _is_dunder_all(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _is_reexport(node: ast.stmt) -> bool:
    """An import, or a tuple/list of names, in a package ``__init__``."""
    return isinstance(node, (ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.Assign)
        and isinstance(node.value, (ast.List, ast.Tuple))
        and all(isinstance(e, (ast.Constant, ast.Starred))
                for e in node.value.elts))


@dataclass(frozen=True)
class CallSite:
    """What one production call passes, by callee name."""

    path: str
    line: int
    npositional: int
    keywords: frozenset
    star: bool            # ``*args``: every position
    double_star: bool     # ``**kw`` over something unresolved: everything


def _dict_literal_keys(node) -> Optional[frozenset]:
    """Keys of ``{...}`` or ``dict(k=...)`` with constant names, else None."""
    if isinstance(node, ast.Dict) and all(
            isinstance(k, ast.Constant) and isinstance(k.value, str)
            for k in node.keys):
        return frozenset(k.value for k in node.keys)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "dict" and not node.args
            and all(k.arg for k in node.keywords)):
        return frozenset(k.arg for k in node.keywords)
    return None


def _module_values(tree: ast.Module) -> dict:
    """Module-level ``NAME = value`` -> the value's node."""
    out = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            out[node.targets[0].id] = node.value
    return out


def _double_star_keys(value, module_values: dict) -> Optional[frozenset]:
    """Keys ``**value`` passes: a literal's keys, or None for everything."""
    keys = _dict_literal_keys(value)
    if keys is not None:
        return keys
    if isinstance(value, ast.Name):
        return _dict_literal_keys(module_values.get(value.id))
    if isinstance(value, ast.Subscript) and isinstance(value.value, ast.Name):
        table = module_values.get(value.value.id)
        if isinstance(table, ast.Dict):
            inner = [_dict_literal_keys(v) for v in table.values]
            if inner and all(k is not None for k in inner):
                return frozenset().union(*inner)
    return None


class Uses:
    """Every code reference and call in a set of production files."""

    def __init__(self, files: dict):
        self.names = defaultdict(list)     # Name, import alias
        self.attrs = defaultdict(list)     # Attribute
        self.strings = defaultdict(list)   # identifier-shaped str constant
        self.calls = defaultdict(list)     # callee name -> [CallSite]
        for path, tree in files.items():
            reexports = (_is_definition_file(path)
                         and path.endswith("/__init__.py"))
            module_values = _module_values(tree)
            for stmt in tree.body:
                if not (_is_dunder_all(stmt)
                        or reexports and _is_reexport(stmt)):
                    self._collect(path, stmt, module_values)

    def _collect(self, path: str, root: ast.AST, module_values: dict):
        docstrings = {id(n.value) for n in ast.walk(root)
                      if isinstance(n, ast.Expr)
                      and isinstance(n.value, ast.Constant)
                      and isinstance(n.value.value, str)}
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                self.names[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                self.attrs[node.attr].append((path, node.lineno))
            elif isinstance(node, ast.alias):
                self.names[node.name.rpartition(".")[2]].append(
                    (path, node.lineno))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings
                  and _IDENTIFIER.match(node.value)):
                self.strings[node.value].append((path, node.lineno))
            elif isinstance(node, ast.Call):
                self._call(path, node, module_values)

    def _call(self, path: str, node: ast.Call, module_values: dict):
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name is None:
            return
        keywords, double_star = set(), False
        for kw in node.keywords:
            if kw.arg is not None:
                keywords.add(kw.arg)
                continue
            keys = _double_star_keys(kw.value, module_values)
            if keys is None:
                double_star = True
            else:
                keywords |= keys
        star = any(isinstance(a, ast.Starred) for a in node.args)
        self.calls[name].append(CallSite(
            path, node.lineno, len(node.args), frozenset(keywords), star,
            double_star))


def _outside(refs, path: str, first: int, last: int) -> bool:
    """Any reference outside lines ``first..last`` of ``path``?"""
    return any(p != path or not first <= i <= last for p, i in refs)


def _simple_name(node) -> str:
    """``name`` of ``name``, ``mod.name`` or ``name(...)``; else ''."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


@dataclass(frozen=True)
class Definition:
    kind: str     # "name", "decorated", "constant"
    name: str
    path: str
    first: int
    last: int


def _module_definitions(files: dict):
    """Public module-level definitions of every definition file."""
    for path, tree in files.items():
        if not _is_definition_file(path):
            continue
        for node in tree.body:
            if isinstance(node, (*_FUNCS, ast.ClassDef)):
                decorators = {_simple_name(d) for d in node.decorator_list}
                if "register_schedule" in decorators:
                    continue
                kind = "decorated" if decorators else "name"
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                kind = "constant"
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if _is_public(name):
                    yield Definition(kind, name, path, node.lineno,
                                     node.end_lineno)


def _classes(files: dict):
    """``(path, ClassDef)`` of every module-level class in definition files."""
    for path, tree in files.items():
        if _is_definition_file(path):
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    yield path, node


def _is_static(func) -> bool:
    return any(_simple_name(d) == "staticmethod" for d in func.decorator_list)


def _is_accessor(func) -> bool:
    """``@x.setter`` / ``@x.deleter``: the property's other half."""
    return any(isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter")
               for d in func.decorator_list)


def scan_names(files: dict, uses: Uses) -> dict:
    """kind -> sorted public module-level names with no code reference."""
    found = defaultdict(list)
    for d in _module_definitions(files):
        refs = (uses.names.get(d.name, []) + uses.attrs.get(d.name, [])
                + uses.strings.get(d.name, []))
        if not _outside(refs, d.path, d.first, d.last):
            found[d.kind].append(d.name)
    return {kind: sorted(names) for kind, names in found.items()}


def scan_methods(files: dict, uses: Uses) -> list:
    """``Class.method`` of public methods and properties no code reaches."""
    found = []
    for path, cls in _classes(files):
        for func in cls.body:
            if (isinstance(func, _FUNCS) and _is_public(func.name)
                    and not _is_accessor(func)):
                refs = uses.attrs.get(func.name, []) + uses.strings.get(func.name, [])
                if not _outside(refs, path, func.lineno, func.end_lineno):
                    found.append(f"{cls.name}.{func.name}")
    return sorted(found)


def _defaulted_params(func, is_method: bool):
    """``(name, positional index or None)`` of each parameter with a default."""
    args = func.args
    positional = args.posonlyargs + args.args
    skip = 1 if is_method and not _is_static(func) else 0
    first_default = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional):
        if i >= first_default:
            yield arg.arg, i - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _subclass_names(files: dict) -> dict:
    """Class name -> itself and every class that (transitively) derives it."""
    bases = defaultdict(set)
    for _, cls in _classes(files):
        for b in cls.bases:
            bases[_simple_name(b)].add(cls.name)
    out = {}
    for _, cls in _classes(files):
        seen, todo = set(), [cls.name]
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(bases.get(name, ()))
        out[cls.name] = seen
    return out


def _callables(files: dict):
    """``(label, callee names, path, func, is_method)`` of scanned functions."""
    subclasses = _subclass_names(files)
    for path, tree in files.items():
        if not _is_definition_file(path) or path.startswith(PARAM_SCAN_EXEMPT):
            continue
        for node in tree.body:
            if isinstance(node, _FUNCS):
                yield node.name, {node.name}, path, node, False
            elif isinstance(node, ast.ClassDef):
                for func in node.body:
                    if not isinstance(func, _FUNCS):
                        continue
                    if func.name == "__init__":
                        yield (node.name, subclasses[node.name] | {"__init__"},
                               path, func, True)
                    elif _is_public(func.name):
                        yield (f"{node.name}.{func.name}", {func.name}, path,
                               func, True)


def _passes(site: CallSite, param: str, index) -> bool:
    return (param in site.keywords or site.double_star
            or (index is not None and (site.star or site.npositional > index)))


def scan_params(files: dict, uses: Uses, out_of_scope=()) -> list:
    """``callable(param=)`` of defaults no production call overrides."""
    found = []
    for label, callees, path, func, is_method in _callables(files):
        if label.partition(".")[0] in out_of_scope:
            continue
        sites = [s for name in callees for s in uses.calls.get(name, ())
                 if s.path != path or not func.lineno <= s.line <= func.end_lineno]
        for param, index in _defaulted_params(func, is_method):
            if not any(_passes(s, param, index) for s in sites):
                found.append(f"{label}({param}=)")
    return sorted(found)


def parse(sources: dict) -> dict:
    return {path: ast.parse(text) for path, text in sources.items()}


@functools.lru_cache(maxsize=None)
def _repo() -> tuple:
    sources = {p.relative_to(ROOT).as_posix(): p.read_text()
               for d in CONSUMER_DIRS for p in sorted((ROOT / d).rglob("*.py"))}
    files = parse(sources)
    return files, Uses(files)


@functools.lru_cache(maxsize=None)
def repo_scan() -> dict:
    """Every scan over the repository, by scan name."""
    files, uses = _repo()
    names = scan_names(files, uses)
    return {
        "name": names.get("name", []),
        "decorated": names.get("decorated", []),
        "constant": names.get("constant", []),
        "method": scan_methods(files, uses),
        "param": scan_params(files, uses, out_of_scope=set(KEPT_TEST_ONLY)),
    }


def _unexpected(scan: str, kept: dict) -> list:
    return [n for n in repo_scan()[scan] if n not in kept]


def _stale(scans, kept: dict) -> list:
    flagged = {n for s in scans for n in repo_scan()[s]}
    return sorted(set(kept) - flagged)


def test_no_public_name_only_tests_call():
    unexpected = _unexpected("name", KEPT_TEST_ONLY)
    assert not unexpected, (
        "public names in src/repro that only tests reference; adopt each on "
        "a production path or delete it with its tests: " + ", ".join(unexpected))


def test_no_decorated_definition_only_tests_call():
    unexpected = _unexpected("decorated", KEPT_TEST_ONLY)
    assert not unexpected, (
        "decorated public definitions that only tests reference: "
        + ", ".join(unexpected))


def test_no_constant_only_tests_read():
    unexpected = _unexpected("constant", KEPT_CONSTANTS)
    assert not unexpected, (
        "public module constants that only tests read; move the value into "
        "the test or delete it: " + ", ".join(unexpected))


def test_no_method_only_tests_call():
    unexpected = _unexpected("method", KEPT_METHODS)
    assert not unexpected, (
        "public methods/properties that only tests call: " + ", ".join(unexpected))


def test_no_default_only_tests_override():
    unexpected = _unexpected("param", KEPT_PARAMS)
    assert not unexpected, (
        "parameters whose default no production call overrides; make each a "
        "constant and delete the branch behind it: " + ", ".join(unexpected))


def test_every_kept_name_is_still_test_only():
    stale = _stale(("name", "decorated"), KEPT_TEST_ONLY)
    assert not stale, (
        f"KEPT_TEST_ONLY entries that are gone or now have a production "
        f"consumer; drop them: {stale}")


def test_every_kept_constant_is_still_test_only():
    stale = _stale(("constant",), KEPT_CONSTANTS)
    assert not stale, f"stale KEPT_CONSTANTS entries; drop them: {stale}"


def test_every_kept_method_is_still_test_only():
    stale = _stale(("method",), KEPT_METHODS)
    assert not stale, f"stale KEPT_METHODS entries; drop them: {stale}"


def test_every_kept_param_is_still_test_only():
    stale = _stale(("param",), KEPT_PARAMS)
    assert not stale, f"stale KEPT_PARAMS entries; drop them: {stale}"


#: An in-memory repository for the scanners' self-test: what each scan
#: must flag, and what it must not.
FIXTURE = {
    "src/repro/fixture.py": textwrap.dedent('''
        """Docstrings name only_in_docs and DOC_CONSTANT; code does not."""
        import functools

        from repro.pp.registry import register_schedule

        DOC_CONSTANT = 3
        USED_CONSTANT = 4


        def only_in_docs():
            """Referenced from no code."""


        def used(a, b=1, c=2, d=3):
            return a + USED_CONSTANT


        def spread(x=1):
            return x


        @functools.lru_cache(maxsize=None)
        def cached_nowhere():
            return 0


        @register_schedule("fixture")
        def registered_builder(shape):
            return shape


        class Widget:
            def called(self, flag=False):
                return flag

            def never_called(self):
                return 2
    '''),
    "benchmarks/bench_fixture.py": textwrap.dedent('''
        """Calls the fixture; only_in_docs appears in this docstring only."""
        from repro.fixture import Widget, spread, used

        OPTS = {"c": 5}
        TABLE = {"x": dict(c=1), "y": {"c": 2}}


        def documented():
            """DOC_CONSTANT"""


        def run(name, **kwargs):
            # only_in_docs, in a comment
            Widget().called(True)
            spread(**kwargs)
            return used(1, 2, **OPTS) + used(1, **TABLE[name])
    '''),
}


def test_scanners_flag_the_fixture():
    files = parse(FIXTURE)
    uses = Uses(files)
    assert scan_names(files, uses) == {
        "name": ["only_in_docs"],
        "decorated": ["cached_nowhere"],
        "constant": ["DOC_CONSTANT"],
    }
    assert scan_methods(files, uses) == ["Widget.never_called"]
    # b is passed by position, c through ``**`` over dict literals, x
    # through an unresolved ``**kwargs``; d hides behind the literals only.
    assert scan_params(files, uses) == ["used(d=)"]
