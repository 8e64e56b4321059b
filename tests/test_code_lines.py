import code_lines

SOURCE = '''"""Module docstring,
over two lines."""

# A comment.
import os  # a trailing comment keeps its line


class Thing:
    """Class docstring."""

    size = 3

    def method(self):
        """Method docstring,

        over three lines."""
        text = """not a docstring:
        an assigned string counts"""
        return text


def function():
    value = 1
    "an expression after the first statement is not a docstring"
    return value
'''


def test_counts_lines_that_are_not_blank_comments_or_docstrings():
    # import, class, size, def, text (2 lines), return, def, value, expression, return
    assert code_lines.code_lines(SOURCE) == 11


def test_every_library_module_is_counted(capsys):
    assert code_lines.main() == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split()[1] for line in lines]
    assert names[-1] == "total" and "errors.py" in names
    counts = [int(line.split()[0].replace(",", "")) for line in lines]
    assert sum(counts[:-1]) == counts[-1]
