"""The tools that check a change: `tools/loc.py` counts code lines and
`tools/digests.py` lists the inputs and cases whose outputs it digests. Each
is loaded by its path, as it is run; no test runs the digests themselves."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(f"_tool_{name}", ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loc_skips_docstrings_comments_and_blank_lines():
    source = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f():
    """A function docstring."""
    return os.sep


class C:
    """A class
    docstring."""

    x = 1
'''
    # import, def, return, class and the assignment
    assert _tool("loc").code_lines(source) == 5


def test_loc_counts_each_line_of_a_statement_and_strings_that_are_no_docstring():
    source = '''x = (1,
     2,
     3)
s = """a string
that is no docstring"""


def g():
    y = 1
    "nor is this, after the first statement"
'''
    assert _tool("loc").code_lines(source) == 8


def test_digest_cases_have_unique_names_and_cover_the_benchmark_workloads():
    inputs = list(_tool("digests").inputs())
    input_names = [name for name, _synthesize, _cases in inputs]
    names = [name for _input, _synthesize, cases in inputs for name in cases]
    assert len(input_names) == len(set(input_names)) and len(names) == len(set(names))
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert {workload["name"] for workload in workloads} <= set(names)
