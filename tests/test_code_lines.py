"""``scripts/code_lines.py`` on files whose counts are known."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "code_lines.py"

# 23 lines; the 8 of code are those of the import, the class, the two
# defs, the string's two non-blank lines and the two returns.
KNOWN = '''\
"""Module docstring,
over two lines."""

# A comment.
import os  # a trailing comment keeps its line


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,

        with a blank line."""
        text = """not a docstring,

        # so every non-blank line counts"""
        return text


async def waits():
    r"""An async function's raw docstring."""
    return os.sep
'''


def test_counts_lines_and_lines_of_code_per_file_and_in_total(tmp_path):
    (tmp_path / "known.py").write_text(KNOWN)
    (tmp_path / "one.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    run = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True, check=True
    )
    assert run.stdout.splitlines() == [
        f"23 8 {tmp_path / 'known.py'}",
        f"1 1 {tmp_path / 'one.py'}",
        "24 9 total",
    ]
