"""Every figure file in ``benchmarks/results`` has a bench that writes it.

The ``report`` fixture (``benchmarks/conftest.py``) names each ``.txt``
after the test that writes it, minus ``test_``; a file no test is named
for is a leftover that no bench run regenerates, and goes stale.
"""

import ast
import pathlib

BENCHMARKS = pathlib.Path(__file__).parent.parent / "benchmarks"


def bench_test_names():
    names = set()
    for path in BENCHMARKS.rglob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("test_")):
                names.add(node.name)
    return names


def test_every_result_file_is_named_after_a_bench_test():
    written = {name.replace("test_", "") for name in bench_test_names()}
    results = sorted((BENCHMARKS / "results").glob("*.txt"))
    assert results
    assert [p.name for p in results if p.stem not in written] == []
