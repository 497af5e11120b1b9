"""The README's quick start runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_prints_the_documented_location(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "(3,)"
