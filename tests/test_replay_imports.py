"""A replay loads only what it runs.

A warm ``audit`` or ``localize`` replays source-salted records, so it must
not import numpy or an engine module (the cycle-accurate core, the tracer,
the batch interpreter, the statistics kernels, the taint engine): those
load where a miss starts work.  Nor must ``cache stats``, which decodes
every record, taint witnesses included.  The packages export their names lazily
(:mod:`repro.util.lazy`), and every exported name still resolves to the
object its defining module holds.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The taint engine, which only a ``--taint on`` miss runs.
TAINT = ("repro.taint.engine", "repro.taint.batch_engine")

#: What a replay must leave unloaded.
ENGINE = ("numpy", "repro.uarch.core", "repro.uarch.batch_core",
          "repro.trace.tracer", "repro.isa.batch_interpreter",
          "repro.sampler.matrix", "repro.sampler.stats_vec", *TAINT)

LAZY_PACKAGES = ("repro", "repro.sampler", "repro.uarch", "repro.isa",
                 "repro.taint", "repro.trace")

#: Runs ``repro.cli.main(argv[2:])`` and writes its status and the loaded
#: modules to ``argv[1]``.
_CLI_PROBE = """\
import json, sys
from repro.cli import main
status = main(sys.argv[2:])
with open(sys.argv[1], "w") as handle:
    json.dump({"status": status, "modules": sorted(sys.modules)}, handle)
"""


def _python(*argv) -> str:
    """Stdout of a fresh interpreter running ``argv`` on this tree."""
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC))).stdout


def _cli_modules(tmp_path, *argv) -> tuple:
    """(exit status, loaded modules) of one CLI process running ``argv``."""
    out = tmp_path / "modules.json"
    _python("-c", _CLI_PROBE, str(out), *argv)
    probe = json.loads(out.read_text())
    return probe["status"], set(probe["modules"])


#: Common options of the probed analysis commands.
_SMALL = ("--inputs", "2", "--config", "small", "--jobs", "1")


@pytest.mark.parametrize("argv, status, cold_engine", [
    (("audit", "sam-ct", "ee-mem-cmp"), 0, set(ENGINE) - set(TAINT)),
    (("audit", "sam-ct", "ee-mem-cmp", "--taint", "on"), 0, set(ENGINE)),
    (("localize", "ee-mem-cmp", "--taint", "on", "--json"), 1, set(ENGINE)),
], ids=["audit", "audit-taint", "localize-taint"])
def test_a_warm_replay_imports_no_engine(tmp_path, argv, status,
                                         cold_engine):
    argv = (*argv, *_SMALL, "--cache-dir", str(tmp_path / "cache"))
    cold_status, cold = _cli_modules(tmp_path, *argv)
    assert cold_status == status
    assert cold_engine <= cold  # the miss ran the engine
    warm_status, warm = _cli_modules(tmp_path, *argv)
    assert warm_status == status
    assert not warm & set(ENGINE)


def test_cache_stats_imports_no_engine(tmp_path):
    cache = str(tmp_path / "cache")
    status, cold = _cli_modules(tmp_path, "audit", "sam-ct", "ee-mem-cmp",
                                "--taint", "on", *_SMALL, "--cache-dir",
                                cache)
    assert status == 0 and set(ENGINE) <= cold
    status, stats = _cli_modules(tmp_path, "cache", "stats", "--cache-dir",
                                 cache)
    assert status == 0
    assert not stats & set(ENGINE)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_export_resolves_to_its_defining_module(name):
    package = importlib.import_module(name)
    assert package.__all__ == sorted(
        export for names in package._EXPORTS.values() for export in names)
    for module_name, exports in package._EXPORTS.items():
        module = importlib.import_module(module_name)
        for export in exports:
            value = vars(module)[export]
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module_name, export
            assert getattr(package, export) is value, export
            namespace = {}
            exec(f"from {name} import {export}", namespace)
            assert namespace[export] is value, export
            assert export in dir(package), export


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        importlib.import_module("repro.sampler").no_such_name  # noqa: B018


#: Imports the submodule ``argv[1]`` first, then prints whether its
#: package's attribute of the same name is a function, through both
#: ``getattr`` and ``from ... import``.
_SHADOW_PROBE = """\
import importlib, inspect, sys
submodule = sys.argv[1]
importlib.import_module(submodule)
package, attribute = submodule.rsplit(".", 1)
value = getattr(importlib.import_module(package), attribute)
namespace = {}
exec(f"from {package} import {attribute}", namespace)
print(inspect.isfunction(value) and namespace[attribute] is value)
"""


@pytest.mark.parametrize("submodule", ["repro.localize",
                                       "repro.localize.localize",
                                       "repro.sampler.mutual_information"])
def test_a_name_shared_with_a_submodule_stays_the_function(submodule):
    assert _python("-c", _SHADOW_PROBE, submodule).strip() == "True"


_POOL_PROBE = """\
import sys
from repro.sampler.exec_backend import WorkerPool
engine = sys.argv[1:]
before = [name for name in engine if name in sys.modules]
pool = WorkerPool(1)
pool.close()
print(before, [name for name in engine if name not in sys.modules])
"""


def test_a_pool_loads_the_simulator_before_it_forks():
    simulator = ("numpy", "repro.uarch.core", "repro.uarch.batch_core",
                 "repro.trace.tracer", "repro.isa.batch_interpreter")
    assert _python("-c", _POOL_PROBE, *simulator).strip() == "[] []"
