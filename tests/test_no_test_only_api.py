"""No public name in ``src/repro`` that only tests call.

A module-level public ``def``/``class`` with no production consumer is
either adopted by a real path or deleted. This test AST-scans
``src/repro`` for undecorated module-level public definitions and fails
for any whose name has no word-boundary reference in ``src/``,
``benchmarks/``, ``perfbench/`` or ``examples/`` outside its own
definition and the package ``__init__`` re-exports (imports, ``__all__``
and other tuples of names there). ``tests/`` does not count.

Decorated definitions (registered schedule builders, dataclasses) are
not scanned. Names that stay on purpose are listed in
:data:`KEPT_TEST_ONLY`, one reason each; names a frozen oracle under
``tests/harness/`` imports would go there too.
"""

import ast
import functools
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CONSUMER_DIRS = ("src", "benchmarks", "perfbench", "examples")

_NUMERICS = "§6.2 numerics reproduction (repro.numerics); its tests are the result"
_ATTENTION = "attention kernels (repro.attention) the numerics reproduction runs"
_CP_EMULATION = "§4 CP tensor emulation; its tests are the bitwise CP result"

#: Module-level public names that only tests reference, kept on purpose.
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
    "pp_output_release_savings": "the only §6.3 early-output-release "
                                 "reproduction (debug/memory_snapshot.py)",
    "assert_valid_trace": "checks every exported Perfetto trace",
    "survivability_report": "pins production behaviour through "
                            "tests/golden/resilience_survivability.json",
}

_IDENT = re.compile(r"\b[A-Za-z_]\w*\b")


def _reexport_lines(tree: ast.Module) -> set:
    """Lines of a package ``__init__`` that only re-export names."""
    lines = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) or (
                isinstance(node, ast.Assign)
                and isinstance(node.value, (ast.List, ast.Tuple))
                and all(isinstance(e, (ast.Constant, ast.Starred))
                        for e in node.value.elts)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _definitions():
    """``(name, path, first line, last line)`` of every scanned def."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.decorator_list
                    and not node.name.startswith("_")):
                yield node.name, path, node.lineno, node.end_lineno


def _references() -> dict:
    """Identifier -> ``[(path, line)]`` over every consumer file, package
    ``__init__`` re-export lines left out."""
    refs = defaultdict(list)
    for d in CONSUMER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            text = path.read_text()
            skip = (_reexport_lines(ast.parse(text))
                    if path.name == "__init__.py" and SRC in path.parents
                    else set())
            for i, line in enumerate(text.splitlines(), 1):
                if i not in skip:
                    for word in set(_IDENT.findall(line)):
                        refs[word].append((path, i))
    return refs


@functools.lru_cache(maxsize=None)
def scan_test_only_names() -> tuple:
    """Scanned names with no reference outside their definition."""
    refs = _references()
    return tuple(sorted(
        name for name, def_path, first, last in _definitions()
        if all(path == def_path and first <= i <= last
               for path, i in refs.get(name, ()))))


def test_no_public_name_only_tests_call():
    unexpected = [n for n in scan_test_only_names() if n not in KEPT_TEST_ONLY]
    assert not unexpected, (
        "public names in src/repro that only tests call; adopt each on a "
        "production path or delete it with its tests: " + ", ".join(unexpected))


def test_every_kept_name_is_still_test_only():
    stale = sorted(set(KEPT_TEST_ONLY) - set(scan_test_only_names()))
    assert not stale, (
        f"KEPT_TEST_ONLY entries that are gone or now have a production "
        f"consumer; drop them: {stale}")
