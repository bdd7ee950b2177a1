"""The benchmark's tracer (perfbench/shim.py) wraps compsigns functions by
module and attribute name, and a name it cannot find kills every traced
run.  This reads its TRACED table without running the shim and checks
that every entry still resolves to a callable."""

import ast
import importlib
from pathlib import Path

SHIM = Path(__file__).resolve().parents[1] / "perfbench" / "shim.py"


def _traced() -> tuple:
    for node in ast.parse(SHIM.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {SHIM}")


def test_traced_names_resolve():
    traced = _traced()
    assert traced
    for span, module, attr in traced:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{span}: {module}.{attr} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"{span}: {module}.{attr} is not callable"
