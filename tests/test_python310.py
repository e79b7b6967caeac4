"""The package source stays within Python 3.10 (``requires-python = ">=3.10"``).

The suite may run on a newer interpreter only, so these checks read the
source instead of importing it under 3.10: every module must parse with
3.10's grammar, and no regex literal may use the possessive repeats or
atomic groups that ``re`` accepts only from 3.11.
"""

import ast
from pathlib import Path

import pytest

import bincyclic

SOURCES = sorted(Path(bincyclic.__file__).resolve().parent.glob("*.py"))


def _newer_regex_syntax(pattern: str) -> list[str]:
    """The possessive repeats (``*+``, ``++``, ``?+``, ``{m,n}+``) and
    atomic groups (``(?>...)``) in ``pattern``, as short excerpts."""
    found = []
    i, in_class = 0, False
    while i < len(pattern):
        c = pattern[i]
        if c == "\\":
            i += 2
            continue
        if in_class:
            in_class = c != "]"
        elif c == "[":
            in_class = True
            i += 1 + pattern.startswith("^", i + 1)
            i += pattern.startswith("]", i)  # a leading ']' is a member
            continue
        elif pattern.startswith("(?>", i):
            found.append(pattern[i:i + 3])
        elif c in "*+?}" and pattern.startswith("+", i + 1) and pattern[i - 1:i] != "(":
            found.append(pattern[max(0, i - 2):i + 2])
        i += 1
    return found


@pytest.mark.parametrize("pattern, newer", [
    (r"\[\[[0-9, -]+\](?:, \[[0-9, -]+\])*+\]", True),
    (r"a++", True),
    (r"a?+b", True),
    (r"a{2,3}+", True),
    (r"(?>ab)c", True),
    (r"\[\[[0-9, -]+\](, \[[0-9, -]+\])*\]", False),
    (r"\++", False),
    (r"[*+]+", False),
    (r"[]+]+", False),
    (r"[^]+]+", False),
    (r"(?:a)+", False),
    (r"a+?", False),
])
def test_newer_regex_syntax_is_recognised(pattern, newer):
    assert bool(_newer_regex_syntax(pattern)) == newer


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_parses_with_the_3_10_grammar(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_3_10_grammar_rejects_except_star():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


def test_no_regex_literal_needs_3_11():
    literals = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                    and node.args and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                literals.append((path.name, node.lineno, node.args[0].value))
    bad = [(name, line, p) for name, line, p in literals if _newer_regex_syntax(p)]
    assert not bad
