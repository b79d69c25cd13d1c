"""README's Python example runs and prints what its comments say.

Each ``print(...)  # text`` line of a ```python block in README.md states
the line that call prints, so a README that names a deleted symbol, or an
example whose printed value changed, fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_example_prints_its_comments(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```",
                        README.read_text(encoding="utf-8"), re.S | re.M)
    assert blocks
    for block in blocks:
        expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
        exec(compile(block, str(README), "exec"), {})
        assert capsys.readouterr().out.splitlines() == expected
