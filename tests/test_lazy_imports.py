"""``import repro`` loads the fuzzing path and nothing else.

A fuzzing session must find everything it runs already loaded, apart
from its own target: so what a P-CLHT session imports after
``import repro`` is exactly what ``import repro.targets.pclht`` imports
on its own. Deferring a module the session runs would break that
equality; loading one it never runs is caught by the list below. Each
check runs in a fresh interpreter that writes no bytecode.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.targets.registry import BUILTIN_TARGETS

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Modules ``import repro`` must not load: the worker pool and what it
#: pulls in, durable sessions, the bug matrix, trace statistics,
#: conformance and every built-in target.
NOT_ON_IMPORT = (
    "multiprocessing",
    "socket",
    "repro.core.parallel",
    "repro.core.session",
    "repro.core.bugmatrix",
    "repro.obs.stats",
    "repro.targets.conformance",
) + tuple("repro.targets." + module for module, _cls
          in BUILTIN_TARGETS.values())

PACKAGES = ("repro", "repro.core", "repro.detect", "repro.instrument",
            "repro.obs", "repro.pmdk", "repro.pmem", "repro.replay",
            "repro.runtime", "repro.targets")


def fresh_json(code):
    """What ``code``, run in a fresh interpreter, prints last as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-B", "-c", code], env=env,
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def added_modules(then):
    """Modules that running ``then`` adds after ``import repro``."""
    return fresh_json("\n".join([
        "import json, sys",
        "import repro",
        "before = set(sys.modules)",
        then,
        "print(json.dumps(sorted(set(sys.modules) - before)))",
    ]))


def test_session_adds_only_its_target():
    session = added_modules(
        "from repro import PMRace, PMRaceConfig, make_target\n"
        "result = PMRace(make_target('P-CLHT'),"
        " PMRaceConfig(max_campaigns=3)).run()\n"
        "assert result.campaigns == 3")
    target = added_modules("import repro.targets.pclht")
    assert "repro.targets.pclht" in target
    assert session == target


def test_import_repro_skips_what_fuzzing_never_runs():
    loaded = set(fresh_json("import json, sys\nimport repro\n"
                            "print(json.dumps(sorted(sys.modules)))"))
    assert "repro.core.engine" in loaded
    assert sorted(loaded.intersection(NOT_ON_IMPORT)) == []


def test_quickstart_names_are_eager():
    for name in ("PMRace", "PMRaceConfig", "make_target"):
        assert name in vars(repro)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves(package):
    module = __import__(package, fromlist=["__all__"])
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")
