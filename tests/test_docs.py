"""The documentation and the export lists name only what the package provides."""

import contextlib
import importlib
import io
import json
import pkgutil
import re
from pathlib import Path

import syncflow
from syncflow.cli import CHECKS, FIELDS, main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_readme_check_table_names_every_check_and_its_parameters():
    text = README.read_text()
    section = text[text.index("## Scenario files"):text.index("## Library use")]
    table = section[section.index("| check | parameters"):].split("\n\n")[0]
    rows = {}
    for line in table.splitlines()[2:]:
        name, params = line.split("|")[1:3]
        # the parameter list ends at its first sentence; a note on the report may follow
        rows[name.strip().strip("`")] = set(re.findall(r"`(\w+)`", params.split(". ")[0]))
    assert rows == {name: set(check.params) for name, check in CHECKS.items()}


def test_readme_lists_every_top_level_scenario_field():
    text = README.read_text()
    section = text[text.index("## Scenario files"):text.index("## Library use")]
    note = section[section.index("* the top-level fields are"):].split("\n*")[0]
    listed = re.findall(r"`(\w+)`", note)
    assert sorted(listed) == sorted(FIELDS) and len(listed) == len(set(listed))


def test_every_bench_file_holds_its_pair_summary():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        bench = json.loads(path.read_text())
        if bench.get("claim"):  # a claimed gain names a declared workload and end-to-end metric
            assert bench["claim"]["workload"] in workloads, path.name
            assert bench["claim"]["metric"] in end_to_end, path.name
        assert {"python", "numpy", "nproc"} <= set(bench["environment"]), path.name
        assert set(bench["src_lines"]) == {"parent", "change"}, path.name
        assert bench["workloads"], path.name
        for name, metrics in bench["workloads"].items():
            for metric, m in metrics.items():
                where = f"{path.name}: {name} {metric}"
                assert {"median", "q1", "q3"} <= set(m["parent"]) & set(m["change"]), where
                assert 0 <= m["pairs_won"] <= m["pairs"], where
