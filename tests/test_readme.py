"""The README's quick start runs as documented, its flag table lists
exactly the CLI's flags, and every public name resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import dftwz
from dftwz import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_prints_the_documented_location(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "(3,)"


def test_flag_table_lists_every_cli_flag():
    table = re.search(
        r"^\| flag \| default \| meaning \|\n\|[- |]+\|\n((?:\|.*\n)+)",
        README.read_text(encoding="utf-8"),
        re.M,
    )
    rows = table.group(1).splitlines()
    documented = [re.match(r"\| `(--[a-z-]+)", row).group(1) for row in rows]
    flags = ["--" + key.replace("_", "-") for key in cli._KNOBS] + ["--out", "--config"]
    assert sorted(documented) == sorted(flags)


@pytest.mark.parametrize(
    "module", ["dftwz"] + [f"dftwz.{m.name}" for m in pkgutil.iter_modules(dftwz.__path__)]
)
def test_every_public_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names {missing}"
