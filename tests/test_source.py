import ast
from pathlib import Path

import assoc2


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so an invariant written as one silently goes away
    modules = sorted(Path(assoc2.__file__).parent.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
