"""The names that the benchmark's tracer wraps still resolve.

``davbench/tracing.py`` wraps davkit's layers from outside the library,
by module and function name, and reads the search counts from the result
of ``search._run_search``.  A rename or a new return shape would break
traced bench runs (``--trace 1``) without any edit under ``davbench/``.
"""

import importlib
import inspect
import os
import sys

from davkit import GroupSpec, parse_ground_set, parse_sequence
from davkit.search import SearchStats, _run_search

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "davbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_wrapped_function_resolves():
    # davkit.search.length_bound among them: the tracer finds the depth
    # bound under the module that calls it
    for _, module, names in tracing.LAYERS:
        mod = importlib.import_module(module)
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_run_search_keeps_its_signature_and_five_tuple():
    # the tracer reads depth_cap and threads by name or position
    params = list(inspect.signature(_run_search).parameters)
    assert params == ["ground", "depth_cap", "mode", "threads", "progress"]
    result = _run_search(parse_ground_set("[-2,2]"), 3, "all")
    assert len(result) == 5
    assert isinstance(result[3], list)
    assert isinstance(result[4], SearchStats)


def test_plain_reads_what_an_element_has():
    # workloads.plain reads group_part, lattice_part.coords, coords,
    # Sequence.is_mixed and group.factors to turn a result into check's form
    lattice = parse_sequence("2*(-1)^2")
    assert workloads.plain(lattice) == ([(((), (-1,)), 2), (((), (2,)), 1)], ())
    mixed = parse_sequence("(0|-2)^3*(1|1)^6", GroupSpec((3,)))  # a longest atom over C3x[-2,2]
    assert workloads.plain(mixed) == ([(((0,), (-2,)), 3), (((1,), (1,)), 6)], (3,))


def test_certificate_imports_nothing_from_the_search():
    # is_minimal certifies what the search kernel finds; sharing the
    # kernel's packing would let one bug fool both
    import ast

    import davkit.zerosum

    tree = ast.parse(inspect.getsource(davkit.zerosum))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {m for m in imported if m.endswith("search") or ".search." in m}, imported
