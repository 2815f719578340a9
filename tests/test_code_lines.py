"""ci/code_lines.py, the report of each module's code lines, on fixtures of known count."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "ci" / "code_lines.py"

# 8 code lines: the numbered ones.  Blank lines, comments and the module,
# class and function docstrings are not counted; a string that is not a
# docstring is, and so is a line of code with a comment after it.
FIXTURE = '''"""A module docstring
over two lines."""

import os  # 1

# a comment
class Thing:  # 2
    """A class docstring."""

    x = """not a docstring"""  # 3

    def f(self):  # 4
        """A function
        docstring."""
            # an indented comment
        return os.sep  # 5


async def g():  # 6
    """An async function docstring."""
    s = "text"  # 7
    return s  # 8
'''


def run(*paths):
    out = subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, paths)], capture_output=True, text=True, check=True
    )
    return [line.split(maxsplit=1) for line in out.stdout.splitlines()]


def test_a_module_with_a_known_count(tmp_path):
    module = tmp_path / "fixture.py"
    module.write_text(FIXTURE)
    assert run(module) == [["8", str(module)], ["8", "total"]]


def test_a_directory_is_searched_and_totalled(tmp_path):
    (tmp_path / "pkg").mkdir()
    for name in ("a.py", "b.py"):
        (tmp_path / "pkg" / name).write_text(FIXTURE)
    (tmp_path / "pkg" / "empty.py").write_text('"""Only a docstring."""\n')
    assert [count for count, _ in run(tmp_path / "pkg")] == ["8", "8", "0", "16"]
