"""The README's Python example runs against the package root and prints what it documents."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def documented_outputs(block):
    """The value each ``print`` line documents: its trailing comment, or a comment line right after it.

    A comment that starts with a letter is prose, not a value, and is ``None``.
    """
    lines = block.splitlines()
    expected = []
    for i, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        _, _, comment = line.partition("#")
        if not comment and i + 1 < len(lines) and lines[i + 1].startswith("#"):
            comment = lines[i + 1][1:]
        comment = comment.strip()
        expected.append(None if not comment or comment[0].isalpha() else comment)
    return expected


def test_readme_python_example():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    expected = documented_outputs(block)
    assert len(printed) == len(expected)
    assert [p for p, e in zip(printed, expected) if e is not None] == [e for e in expected if e is not None]
    assert expected.count(None) == 1  # only the added_by_type line documents prose
