"""tools/code_lines.py counts statement lines, not blanks, comments or docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import math


class Box:
    """Class docstring."""

    size = 2  # a trailing comment keeps the line

    def area(self):
        """Function
        docstring."""
        text = """a string that is not a docstring

        counts, but not its blank line"""
        return self.size * self.size, text
'''


def test_counts_only_code_lines():
    # import, class, size, def, the two non-blank lines of text, return
    assert code_lines.code_lines(SOURCE) == 7


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["7", "a.py", "1", "b.py", "8", "total"]
