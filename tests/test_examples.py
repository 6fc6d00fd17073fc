"""Every example script imports cleanly against the current API.

Loading a script with a run name other than ``__main__`` executes its
imports and top-level definitions but not its ``main()``, so an API cut
that breaks an example fails here in milliseconds instead of in CI's
smoke job (or not at all).
"""

import pathlib
import runpy

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_loads(path):
    namespace = runpy.run_path(str(path), run_name="not_main")
    assert callable(namespace.get("main")), f"{path.name} has no main()"
