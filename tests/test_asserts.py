"""Checks on the tests themselves.

`assert a == b if c else d` parses as `assert (a == b) if c else d`: when c is false it asserts d,
and a non-empty d always passes, so the check it looks like never runs. No test may assert a
conditional expression; one that means to parenthesises the comparison's right-hand side.
"""

import ast
from pathlib import Path

import pytest

TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", TESTS, ids=[path.name for path in TESTS])
def test_no_assert_tests_a_conditional_expression(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert) and isinstance(node.test, ast.IfExp)]
    assert lines == [], f"{path.name}: assert of a conditional expression at lines {lines}"


def test_the_check_sees_an_unparenthesised_conditional():
    bare, wrapped = "assert a == b if c else [d]", "assert a == (b if c else [d])"
    assert isinstance(ast.parse(bare).body[0].test, ast.IfExp)
    assert isinstance(ast.parse(wrapped).body[0].test, ast.Compare)
