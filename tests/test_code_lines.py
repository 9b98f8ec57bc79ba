"""The code-line counter in ``tools/code_lines.py``, on a toy source."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

TOY = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line


# A comment line.
def area(radius):
    """A function docstring."""
    return math.pi * pow(
        radius,
        2,
    )


class Shape:
    """A class docstring."""

    sides = 0
'''


def test_counts_code_lines_only():
    # import, def, the four lines of the call, class, sides: the docstrings,
    # the comment line and the blank lines do not count.
    assert code_lines.code_lines(TOY) == 8


def test_prints_one_line_per_module_and_the_total(tmp_path, capsys):
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    paths[0].write_text(TOY, encoding="utf-8")
    paths[1].write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    assert code_lines.main([str(p) for p in paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["8", str(paths[0])], ["2", str(paths[1])], ["10", "total"]]
