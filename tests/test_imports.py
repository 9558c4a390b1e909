"""Import contract: no outerpath module loads numpy, ``import outerpath``
loads the modules that ``outerpath.cli`` loads and no other, only
``search`` and ``verify-paper`` load the search stack (``search`` without
the chord statistics and the checks), ``outerpath.polygon`` loads no
part of it, only a sweep that starts a child loads multiprocessing, no
command loads dataclasses or inspect and only the checks that call
``lower_bound_value`` load fractions, no module imports a name it never
uses but one the benchmark's span tracer wraps there, and every name that
tracer wraps resolves.

Each load check runs in a fresh interpreter, since this test process has
long since imported the search stack.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import outerpath

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Modules the light commands must not load: numpy, which no outerpath module
# loads, and those that only outerpath.search and outerpath.verify (and
# outerpath.chords, through it) need.
HEAVY = (
    "numpy",
    "multiprocessing",
    "outerpath.polygon",
    "outerpath.search",
    "outerpath.chords",
    "outerpath.verify",
)

# Standard modules that cost start-up time and that the light commands do
# not need: dataclasses, which loads inspect (and with it ast, dis and
# tokenize), and fractions, which loads decimal.  The records are
# NamedTuples and slotted classes, and only lower_bound_value and the checks
# use fractions.
SLOW_STDLIB = ("dataclasses", "inspect", "fractions", "decimal")

REPORT_LOADED = f"print(json.dumps([m for m in {HEAVY + SLOW_STDLIB!r} if m in sys.modules]))"


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports the package this test imported."""
    src = str(Path(outerpath.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _main(argv: list[str]) -> str:
    """Code that runs the command line on ``argv`` and asserts exit status 0."""
    return (
        "import contextlib, io\n"
        "from outerpath.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )


@pytest.mark.parametrize("module", ["outerpath", "outerpath.cli"])
def test_import_leaves_search_stack_unloaded(module):
    out = run_fresh(f"import json, sys, {module}\n{REPORT_LOADED}")
    assert json.loads(out) == []


def test_root_loads_what_the_cli_loads():
    code = (
        "import json, sys\n"
        "import {}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('outerpath.'))))\n"
    )
    root = json.loads(run_fresh(code.format("outerpath")))
    cli = json.loads(run_fresh(code.format("outerpath.cli")))
    assert root == [m for m in cli if m != "outerpath.cli"]


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--kind", "star", "--n", "9", "--k", "3"],
        ["construct", "--kind", "cycle", "--n", "6"],
        ["dual", "--kind", "cycle", "--n", "6", "--complete"],
        ["search", "--n", "5", "--k", "3"],
    ],
)
def test_light_commands_leave_search_stack_unloaded(argv):
    # the search command loads the sweep and the polygon, but not the checks
    # or the chord statistics; none of them loads dataclasses, inspect or
    # fractions
    loaded = ["outerpath.polygon", "outerpath.search"] if argv[0] == "search" else []
    assert json.loads(run_fresh(f"import json, sys\n{_main(argv)}{REPORT_LOADED}")) == loaded


def test_verify_paper_loads_no_dataclasses_or_inspect():
    # nor fractions or decimal: lower_bound_value imports fractions when it
    # is called, and the endpoint check does not call it
    code = (
        "import json, sys\n"
        + _main(["verify-paper", "--only", "endpoint", "--jobs", "1"])
        + f"print(json.dumps([m for m in {SLOW_STDLIB!r} if m in sys.modules]))\n"
    )
    assert json.loads(run_fresh(code)) == []


def test_polygon_loads_no_sweep_or_checks():
    # code that lists or draws n-gon graphs without the sweep can import
    # the polygon alone
    out = run_fresh(f"import json, sys\nimport outerpath.polygon\n{REPORT_LOADED}")
    assert json.loads(out) == ["outerpath.polygon"]


def test_sweep_and_endpoint_check_load_no_numpy():
    # every sweep the package runs, and the check that reads the census
    code = (
        "import json, sys\n"
        "from outerpath import search\n"
        "from outerpath.verify import run_verify\n"
        "for n in range(3, 10):\n"
        "    search._sweep(n, 1)\n"
        "report = run_verify(only='endpoint')\n"
        "assert [c.name for c in report.checks] == ['endpoint-path-bound'] and report.all_passed\n"
        "print(json.dumps('numpy' in sys.modules))\n"
    )
    assert json.loads(run_fresh(code)) is False


def test_sweeps_that_fork_no_child_load_no_multiprocessing():
    # every sweep below _FORK_WORK runs in the caller at any worker count,
    # and a one-block sweep starts no child at any size
    code = (
        "import json, sys\n"
        "from outerpath import search\n"
        "search._sweep(8, 2)\n"
        "assert search.extremal_value(8, 3, jobs=2).max_copies == 21\n"
        "search._sweep(9, 1)\n"
        "print(json.dumps('multiprocessing' in sys.modules))\n"
    )
    assert json.loads(run_fresh(code)) is False


def test_search_names_resolve_on_first_use():
    # the root does not re-export the search names; outerpath.search loads
    # only when it is imported, and then is a submodule like any other
    code = (
        "import sys, outerpath\n"
        "for name in ('extremal_value', 'search', 'chord_stats'):\n"
        "    try:\n"
        "        getattr(outerpath, name)\n"
        "    except AttributeError:\n"
        "        print('AttributeError', name)\n"
        "assert 'outerpath.search' not in sys.modules\n"
        "from outerpath import search\n"
        "assert outerpath.search is search is sys.modules['outerpath.search']\n"
        "from outerpath.polygon import catalan\n"
        "assert catalan(5) == 42\n"
        "assert not hasattr(outerpath, 'extremal_value')\n"
    )
    assert run_fresh(code) == (
        "AttributeError extremal_value\nAttributeError search\nAttributeError chord_stats\n"
    )


def traced_names(module: str) -> set[str]:
    """The names of ``module`` that perfbench/spans.py's TARGETS list, read without importing it."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    [targets] = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    return {attr for mod, attr in targets if mod == module}


@pytest.mark.parametrize(
    "module", sorted(p.name for p in Path(outerpath.__file__).parent.glob("*.py") if p.name != "__init__.py")
)
def test_every_imported_name_is_used(module):
    # the package has no linter; __init__.py imports names to re-export them,
    # and a module may import a name only so that the span tracer finds it
    # there under the module's name
    tree = ast.parse((Path(outerpath.__file__).parent / module).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - traced_names(module.removesuffix(".py"))) == []


def test_traced_names_resolve():
    # the benchmark's span tracer raises when a name it traces is bound
    # nowhere, so a library function kept only for it must stay a module
    # attribute; it also wraps dual.Tree.__post_init__ and each entry of
    # verify.ALL_CHECKS.  install rebinds module attributes, so it runs in
    # a fresh interpreter that imports what the benchmark imports
    code = (
        f"import sys\nsys.path.insert(0, {str(PERFBENCH)!r})\n"
        "import outerpath, spans, workloads\n"
        "spans.install(spans.Tracer(), outerpath)\n"
    )
    run_fresh(code)
