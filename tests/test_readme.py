"""The README's quick start runs as documented, its flag table lists
exactly the CLI's flags, it names every public name, every public name
and its annotations resolve, and a fresh interpreter imports only the
submodules it uses."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import typing
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


_MODULES = ["dftwz"] + [f"dftwz.{m.name}" for m in pkgutil.iter_modules(dftwz.__path__)]


def test_readme_names_every_public_name():
    text = README.read_text(encoding="utf-8")
    missing = [name for name in dftwz.__all__
               if name != "__version__" and not re.search(rf"\b{name}\b", text)]
    assert not missing, f"README.md does not name {missing}"


@pytest.mark.parametrize("module", _MODULES)
def test_every_public_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names {missing}"


@pytest.mark.parametrize("module", _MODULES)
def test_every_public_callables_annotations_resolve(module):
    mod = importlib.import_module(module)
    for name in mod.__all__:
        if callable(obj := getattr(mod, name)):
            typing.get_type_hints(obj)


def _fresh(code):
    """Stdout of ``code`` run in a fresh interpreter that imports this dftwz."""
    src = str(Path(dftwz.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_LOADED = """
import sys
print(*sorted(m for m in sys.modules
              if m.split(".")[0] in ("dftwz", "multiprocessing", "fractions")))
"""


@pytest.mark.parametrize("code, loaded", [
    ("import dftwz; dftwz.build_code(7, 5)", ["dftwz", "dftwz.codes"]),
    ("import dftwz.cli", sorted(["dftwz"] + [f"dftwz.{m.name}"
                                             for m in pkgutil.iter_modules(dftwz.__path__)])),
])
def test_start_up_loads_only_what_it_uses(code, loaded):
    # A public name loads its submodule on first use; multiprocessing waits
    # for a pooled sweep and fractions for compression_ratio.
    assert _fresh(code + _LOADED).split() == loaded


_NAMES = """
import importlib, json, dftwz.cli
try:
    dftwz.no_such_name
except AttributeError as exc:
    error = str(exc)
print(json.dumps({
    "differ": [name for name in dftwz.__all__ if name != "__version__" and getattr(dftwz, name)
               is not getattr(importlib.import_module(f"dftwz.{dftwz._SUBMODULE[name]}"), name)],
    "undir": sorted(set(dftwz.__all__) - set(dir(dftwz))),
    "error": error,
}))
"""


def test_public_names_are_their_submodules_objects():
    assert json.loads(_fresh(_NAMES)) == {
        "differ": [], "undir": [], "error": "module 'dftwz' has no attribute 'no_such_name'"}


def test_import_of_a_submodule_binds_the_module():
    assert _fresh("""
import dftwz.quantize as q
print(type(q).__name__, q.__name__, q.QuantizerSpec.__name__, q.quantize.__qualname__,
      q.quantize.__module__)
""").split() == ["module", "dftwz.quantize", "QuantizerSpec", "quantize", "dftwz.quantize"]
