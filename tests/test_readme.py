"""The README's quick tour runs as written and gives the values its
comments state, its command-line lines parse, and its list of limits
mirrors the table."""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

from konigmatch.cli import build_parser
from konigmatch.errors import Limit, exit_code

README = Path(__file__).parent.parent / "README.md"


def _python_block() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"),
                          re.S)
    return block


def _trailing_comments(source: str) -> dict[int, str]:
    """Line number -> the text of the comment that ends that line."""
    return {tok.start[0]: tok.string.lstrip("#").strip()
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT}


def test_the_quick_tour_gives_the_values_its_comments_state():
    source = _python_block()
    comments = _trailing_comments(source)
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(source).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README", "exec"),
                 namespace)
            continue
        # every bare expression states its value in a trailing comment
        stated = ast.literal_eval(comments[statement.end_lineno])
        value = eval(compile(ast.Expression(statement.value), "README",
                             "eval"), namespace)
        assert (type(value), value) == (type(stated), stated), \
            ast.unparse(statement)
        checked += 1
    assert checked == 5


def test_every_documented_command_line_parses():
    block = "".join(re.findall(r"```sh\n(.*?)```", README.read_text("utf-8"),
                               re.S))
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["konigmatch"]]
    parser = build_parser()
    for argv in commands:
        # argparse exits on an unknown flag or a missing argument
        parser.parse_args(argv)
    assert len(commands) == 9


def test_the_limits_list_mirrors_the_table():
    section = README.read_text("utf-8").split("\n## Limits\n")[1]
    section = section.split("\n## ")[0]
    # each item "- `NAME`: value what it counts; `Error`, exit n", its
    # wrapped lines joined
    items = dict(re.findall(r"^- `(\w+)`: (.*?)(?=^- |^$)",
                            section + "\n", re.M | re.S))
    assert list(items) == [row.name for row in Limit]
    for row in Limit:
        item = " ".join(items[row.name].split())
        assert item.startswith(f"{row.value:,} {row.counts}; "
                               f"`{row.error.__name__}`, "
                               f"exit {exit_code(row.error)}"), row.name
