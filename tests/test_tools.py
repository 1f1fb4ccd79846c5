import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

_SOURCE = '''"""Module docstring,
over two lines."""

# A comment-only line.
import os  # a trailing comment keeps the line


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,

        with a blank line inside."""
        text = """a string
that is not a docstring"""
        return (text,
                os.sep)
'''


def test_counts_all_lines_and_code_lines():
    # Code: import, class, def, the two-line string, the two-line return.
    assert src_lines.count(_SOURCE) == (len(_SOURCE.splitlines()), 7)


def test_main_prints_both_totals(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"{len(_SOURCE.splitlines()) + 2} 8\n"


def test_main_rejects_a_directory_without_modules(tmp_path, capsys):
    assert src_lines.main([str(tmp_path)]) == 2
    assert "no Python files" in capsys.readouterr().err
