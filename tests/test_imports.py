"""Start-up: each module is imported on the path that uses it.

Every check runs in a fresh interpreter, since what a process has
imported depends on what ran before in it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import guardcheck
from guardcheck.demos import DEMOS, load_demo_document
from guardcheck.formats import FormatError, scenario_from_json

SRC = str(Path(guardcheck.__file__).resolve().parents[1])
EXPLORER_STACK = (
    "guardcheck.explore", "guardcheck.lang", "guardcheck.ghost", "guardcheck.resolvers"
)
SCENARIO_DEMOS = sorted(name for name, spec in DEMOS.items() if spec["kind"] == "explore")
CHECK_DEMOS = sorted(name for name, spec in DEMOS.items() if spec["kind"] == "check")


def fresh(code: str):
    """What ``code`` prints as its last line, as JSON, run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOAD_SCENARIO = (
    "from guardcheck import demos, formats\n"
    "formats.scenario_from_json(demos.load_demo_document('rwlock-exc.scenario.json'))\n"
)


@pytest.mark.parametrize(
    "prelude",
    ["import guardcheck\n", LOAD_SCENARIO, "import guardcheck.explore\n"],
    ids=["package-first", "after-scenario-load", "after-submodule-import"],
)
def test_package_exports_in_every_import_order(prelude):
    got = fresh(prelude + """
import json, sys, types
import guardcheck
from guardcheck import explore
names = {}
exec("from guardcheck import *", names)
try:
    guardcheck.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "explore": isinstance(explore, types.FunctionType),
    "same": explore is sys.modules["guardcheck.explore"].explore is guardcheck.explore,
    "unresolved": [n for n in guardcheck.__all__ if getattr(guardcheck, n, None) is None],
    "star": sorted(set(guardcheck.__all__) - set(names)),
    "dir": sorted(set(guardcheck.__all__) - set(dir(guardcheck))),
    "unknown": unknown,
}))
""")
    assert got == {
        "explore": True,
        "same": True,
        "unresolved": [],
        "star": [],
        "dir": [],
        "unknown": "module 'guardcheck' has no attribute 'no_such_name'",
    }


REGISTRIES = """
import json, sys
registry = sys.modules["guardcheck.explore"]
print(json.dumps({name: sorted(getattr(registry, name)) for name in
    ("RESOLVERS", "RESOLVER_ARGS", "PROPERTY_EVALUATORS", "PROPERTY_PARAMS")}))
"""


def test_registries_do_not_depend_on_import_order():
    alone = fresh("import guardcheck.explore\n" + REGISTRIES)
    everything = fresh(
        "import guardcheck.cli, guardcheck.demos, guardcheck.studies\n"
        "from guardcheck import *\n" + REGISTRIES
    )
    assert alone == everything
    assert "rw.exc-begin" in alone["RESOLVERS"]
    assert "ht-valid" in alone["PROPERTY_PARAMS"]


def _mistyped_property(doc: dict) -> None:
    # rw-mutual-exclusion is registered by guardcheck.resolvers
    prop = next(p for p in doc["properties"] if p["kind"] == "rw-mutual-exclusion")
    prop["params"]["instance"] = 7


def _mistyped_resolver_arg(doc: dict) -> None:
    entry = {"label": "t0.exc_begin", "resolver": "ghost.transfer", "args": {"from": 7}}
    doc["script"].append(entry)


def _mistyped_lock_arg(doc: dict) -> None:
    # rw.exc-begin is registered by guardcheck.resolvers
    doc["script"][0]["args"]["instance"] = 7


@pytest.mark.parametrize(
    "mistype", [_mistyped_property, _mistyped_resolver_arg, _mistyped_lock_arg]
)
def test_declared_kinds_are_checked_with_only_formats_imported(mistype):
    doc = load_demo_document("rwlock-exc.scenario.json")
    mistype(doc)
    with pytest.raises(FormatError) as full:
        scenario_from_json(doc)
    alone = fresh(f"""
import json
from guardcheck.formats import FormatError, scenario_from_json
try:
    scenario_from_json(json.loads({json.dumps(json.dumps(doc))}))
    print(json.dumps(None))
except FormatError as exc:
    print(json.dumps(str(exc)))
""")
    assert alone == str(full.value)


def test_no_import_inside_the_verdict_window():
    got = fresh(f"""
import json, sys
from guardcheck import cli, formats
from guardcheck.demos import load_demo_document
checks = [(load_demo_document(n + ".protocol.json"), load_demo_document(n + ".relations.json"))
          for n in {CHECK_DEMOS!r}]
scenarios = [formats.scenario_from_json(load_demo_document(n + ".scenario.json"))
             for n in {SCENARIO_DEMOS!r}]
before = set(sys.modules)
for protocol, relations in checks:
    formats.dumps(cli.run_check(protocol, relations))
for scenario in scenarios:
    for mode in ("rule", "concrete"):
        formats.dumps(cli.run_explore_scenario(scenario, mode))
print(json.dumps(sorted(set(sys.modules) - before)))
""")
    assert got == []


@pytest.mark.parametrize(
    "argv, loads_explorer",
    [
        (["check", "{demos}/protocol-rwlock.protocol.json",
          "{demos}/protocol-rwlock.relations.json"], False),
        (["explore", "{demos}/rwlock-exc.scenario.json"], True),
        (["demo", "protocol-count"], False),
        (["demo", "rwlock-exc"], True),
    ],
    ids=["check", "explore", "demo-protocol-count", "demo-rwlock-exc"],
)
def test_a_command_loads_only_what_it_runs(argv, loads_explorer):
    demos = str(Path(SRC) / "guardcheck" / "demos")
    argv = [a.format(demos=demos) for a in argv]
    code, loaded = fresh(f"""
import contextlib, io, json, sys
from guardcheck.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("guardcheck."))]))
""")
    assert code == 0
    for module in EXPLORER_STACK:
        assert (module in loaded) == loads_explorer, (module, loaded)
    # the scenario builders only write documents
    assert "guardcheck.studies" not in loaded, loaded
    # the demo registry is read by `demo` alone
    assert ("guardcheck.demos" in loaded) == (argv[0] == "demo"), loaded


# every value class is a Record, and the resolver context a plain class
KEPT_DATACLASSES = []


def test_loading_generates_no_value_class_code():
    check = CHECK_DEMOS[0]
    loaded, dataclasses, generated = fresh(f"""
import dataclasses, json, sys
from guardcheck import cli, formats
from guardcheck.demos import load_demo_document
for n in {SCENARIO_DEMOS!r}:
    formats.scenario_from_json(load_demo_document(n + ".scenario.json"))
cli.run_check(load_demo_document({check + ".protocol.json"!r}),
              load_demo_document({check + ".relations.json"!r}))
classes = {{m + "." + c.__qualname__: c for m in list(sys.modules) if m.startswith("guardcheck.")
           for c in vars(sys.modules[m]).values() if isinstance(c, type) and c.__module__ == m}}
print(json.dumps([
    sorted(sys.modules),
    sorted(n for n, c in classes.items() if dataclasses.is_dataclass(c)),
    sorted(n for n, c in classes.items() if any(  # methods compiled from generated source
        getattr(f, "__code__", None) and f.__code__.co_filename == "<string>" for f in vars(c).values())),
]))
""")
    assert set(EXPLORER_STACK) <= set(loaded)
    assert dataclasses == KEPT_DATACLASSES
    assert generated == KEPT_DATACLASSES


# the standard library that dataclasses, inspect and fractions bring in
UNUSED_STDLIB = ["ast", "copy", "dataclasses", "decimal", "dis", "fractions", "inspect",
                 "numbers", "tokenize"]
LOADED = f"""
import json, sys
print(json.dumps(sorted(set({UNUSED_STDLIB!r}) & set(sys.modules))))
"""


def test_a_run_loads_no_unused_standard_library():
    bare = fresh(LOADED)  # what site loads, before guardcheck runs
    got = fresh(f"""
from guardcheck import cli, formats
from guardcheck.demos import load_demo_document
for n in {SCENARIO_DEMOS!r}:
    scenario = formats.scenario_from_json(load_demo_document(n + ".scenario.json"))
    for mode in ("rule", "concrete"):
        formats.dumps(cli.run_explore_scenario(scenario, mode))
for n in {CHECK_DEMOS!r}:
    formats.dumps(cli.run_check(load_demo_document(n + ".protocol.json"),
                                load_demo_document(n + ".relations.json")))
""" + LOADED)
    assert sorted(set(got) - set(bare)) == []
