import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment

# a comment line


def area(r):
    """Function docstring."""
    return (math.pi
            * r ** 2)  # a multi-line expression: two code lines


class Shape:
    """Class docstring."""

    NAME = """a string that is
not a docstring"""
'''


def test_counts_code_lines_of_a_sample(tmp_path, capsys):
    # import, def, the two lines of the return, class, and the two lines of
    # NAME; the docstrings, comments and blank lines do not count
    assert code_lines.code_lines(SAMPLE) == 7
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out == "a 7\nb 1\ntotal 8\n"
