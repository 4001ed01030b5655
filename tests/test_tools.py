"""The tools that check a change: `tools/loc.py` counts code lines,
`tools/digests.py` lists the inputs and cases whose outputs it digests, and
`tools/abpairs.py` summarizes benchmark pairs. Each is loaded by its path,
as it is run; no test runs the digests or the benchmark themselves."""

import importlib.util
import json
from pathlib import Path

import pytest

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


def _runs(values):
    return [{"metrics": {"t": {"value": v}, "q": {"value": v}}} for v in values]


def test_abpairs_summary_reads_each_metric_the_way_it_is_better():
    summarize = _tool("abpairs").summarize
    spec = [{"name": "t", "better": "lower", "bound": 0.25},
            {"name": "q", "better": "higher", "bound": 0.06}]
    # the head's times are 20% lower in every pair: a gain for the lower-is-
    # better metric, and a loss beyond its bound for the higher-is-better one
    result = summarize(_runs([10.0, 11.0, 10.5, 10.2]), _runs([8.0, 8.8, 8.4, 8.16]), spec)
    t, q = result["t"], result["q"]
    assert t["median_ratio"] == pytest.approx(0.8) and t["range"] == pytest.approx([0.8, 0.8])
    assert t["head_wins"] == 4 and t["gain_claimable"] and not t["leaves_bound"]
    assert q["head_wins"] == 0 and not q["gain_claimable"] and q["leaves_bound"]
    assert t["base_quartiles"][1] == pytest.approx(10.35)
    # a gain smaller than the distance between the base's quartiles is no gain
    noisy = summarize(_runs([10.0, 12.0, 10.0, 12.0]), _runs([9.9, 11.9, 9.9, 11.9]), spec)
    assert noisy["t"]["head_wins"] == 4 and not noisy["t"]["gain_claimable"]
