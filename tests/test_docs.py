"""README's and PAPER.md's Python blocks run, and every value they show in a comment holds.

A document's ``python`` blocks run in order, in one namespace, from the repository root
(README reads ``tests/data/spot_prices.csv``).  The comment after an expression shows its
value where the comment's text, up to a ``: `` or `` —`` that starts prose, is a Python
literal: the value's repr must be that text, or start with it where it ends in ``...``.
The comments in ``PROSE`` show a value in prose; each is compared with what it states.
Other comments are not read.
"""

import ast
import io
import math
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
# the expressions whose comments are read as values, in each document's order
SHOWN = ["res.price_after", "st2.x > spec.k", "n.tail_index(samples)", "g.gamma"]
# each comment that shows a value in prose, in each document's order, and that value as an
# expression in the namespace the blocks have built so far (with ``sqrt``)
PROSE = {
    "1/sqrt(2): the peak": "1/sqrt(2)",
    "equals state_from_price(spec, -0.5).x": "n.state_from_price(spec, -0.5).x",
    "{2022: (0 days, min 48.75), 2023: (2, -5.25)}":
        "{2022: n.YearStats(0, 48.75), 2023: n.YearStats(2, -5.25)}",
}


def shown_value(comment: str):
    """(literal text, is_prefix) that a comment shows, or None where it is prose."""
    text = re.split(r":\s|:$|\s—", comment.lstrip("#").strip())[0].strip()
    prefix = text.endswith("...")
    text = text[:-3] if prefix else text
    try:
        ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return None
    return text, prefix


def run_blocks(doc: str, read=shown_value, namespace=None) -> list:
    """Run every python block of ``doc`` in ``namespace`` (a new one by default);
    (expression, value, *read(comment)) for each expression whose comment ``read`` accepts:
    by default (shown text, is_prefix)."""
    namespace, checked = {} if namespace is None else namespace, []
    for block in BLOCK.findall((ROOT / doc).read_text(encoding="utf-8")):
        tokens = tokenize.generate_tokens(io.StringIO(block).readline)
        comments = {tok.start[0]: tok.string for tok in tokens if tok.type == tokenize.COMMENT}
        for stmt in ast.parse(block).body:
            shown = comments.get(stmt.end_lineno)
            shown = shown and isinstance(stmt, ast.Expr) and read(shown)
            code = ast.Expression(stmt.value) if shown else ast.Module([stmt], [])
            value = eval(compile(code, doc, "eval" if shown else "exec"), namespace)
            if shown:
                checked.append((ast.unparse(stmt.value), value, *shown))
    return checked


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_python_blocks_run_and_show_their_values(doc, monkeypatch):
    monkeypatch.chdir(ROOT)
    checked = run_blocks(doc)
    assert [expr for expr, *_ in checked] == SHOWN
    for expr, value, text, prefix in checked:
        assert repr(value).startswith(text) if prefix else repr(value) == text, (expr, value)


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_prose_comments_show_their_values(doc, monkeypatch):
    monkeypatch.chdir(ROOT)
    namespace = {}

    def stated(comment):  # (comment text, the value it states) for a comment in PROSE
        text = comment.lstrip("#").strip()
        return text in PROSE and (text, eval(PROSE[text], {**namespace, "sqrt": math.sqrt}))

    checked = run_blocks(doc, stated, namespace)
    assert [text for *_, text, _ in checked] == list(PROSE)
    for expr, value, text, expected in checked:
        assert value == expected, (expr, text, value)


def test_a_comment_shows_a_literal_up_to_its_prose():
    shown = shown_value("# 0.44689617963060235 — still positive")
    assert shown == ("0.44689617963060235", False)
    assert shown_value("# True: right of the fold") == ("True", False)
    assert shown_value("# 2.9999649...: cubic decay") == ("2.9999649", True)
    for prose in ("# 1/sqrt(2): the peak", "# same point in tick coordinates",
                  "# -(sigma^2/2) * gamma > 0",
                  "# {2022: (0 days, min 48.75), 2023: (2, -5.25)}"):
        assert shown_value(prose) is None


def test_readme_subcommand_table_matches_the_parser():
    """README's CLI table: each subcommand, what it emits (its help) and its required flags."""
    from negamm import cli

    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    table = re.search(r"^```text\n(.*?)^```", section, re.MULTILINE | re.DOTALL).group(1)
    header, *rows = table.splitlines()
    assert re.split(r"\s{2,}", header) == ["subcommand", "what it emits", "required flags"]
    subs = cli._build_parser()._subparsers._group_actions[0]
    helps = {action.dest: action.help for action in subs._choices_actions}
    shown = {}
    for row in rows:
        command, emits, required = re.split(r"\s{2,}", row)
        shown[command.removeprefix("negamm ")] = (emits, set(required.split(", ")))
    assert set(shown) == set(subs.choices)
    for name, sub in subs.choices.items():
        flags = {action.option_strings[0] for action in sub._actions if action.required}
        assert shown[name] == (helps[name], flags), name
