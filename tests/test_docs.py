"""The documentation and the export lists name only what the package provides."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import syncflow
from syncflow.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_runs():
    text = README.read_text()
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, f"{README}: Library use", "exec"), {})


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(syncflow.__path__, "syncflow."):
        module = importlib.import_module(info.name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{info.name}.__all__ names missing {missing}"


def test_readme_scenario_verifies(tmp_path):
    text = README.read_text()
    section = text[text.index("## Scenario files"):]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", str(scenario)]) == 0
