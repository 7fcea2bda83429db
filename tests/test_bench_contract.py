"""The names that the benchmark's tracer wraps still resolve.

``davbench/tracing.py`` wraps davkit's layers from outside the library,
by module and function name, and reads the search counts from the result
of ``search._run_search``.  A rename or a new return shape would break
traced bench runs (``--trace 1``) without any edit under ``davbench/``.
"""

import importlib
import inspect
import os
import subprocess
import sys

from davkit import GroupSpec, parse_ground_set, parse_sequence
from davkit.search import SearchStats, _run_search

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "davbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_wrapped_function_resolves():
    # davkit.search.length_bound among them: the tracer finds the depth
    # bound under the module that calls it
    for _, module, names in tracing.LAYERS:
        mod = importlib.import_module(module)
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_tracer_wraps_every_layer_in_a_fresh_interpreter():
    # as davbench/run.py does: import davkit, then the workloads (which
    # import davkit.cli), then install the tracer, which looks each layer's
    # module up in sys.modules while most of davkit has not run yet
    code = (
        "import sys\n"
        f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {os.path.join(ROOT, 'davbench')!r}]\n"
        "import davkit, tracing, workloads\n"
        "tracing.Tracer().install()\n"
        "print([f'{mod}.{name}' for _, mod, names in tracing.LAYERS for name in names\n"
        "       if not hasattr(getattr(sys.modules[mod], name), '__wrapped__')])\n"
        "print(hasattr(davkit.davenport, '__wrapped__'), davkit.davenport is davkit.search.davenport)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True True"]


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
