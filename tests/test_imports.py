"""The package's import graph: which layers each entry point executes.

``import pgmhsp`` loads caps, groups and eta; msum, pgm, pipeline and
metacyclic are lazy modules that execute on first attribute access.
Each case runs in a fresh interpreter, since any earlier import in this
process would already have loaded the layers.  The last test imports the
benchmark's workload module, whose op lists read package names.
"""

import json
import pathlib
import subprocess
import sys

import pytest

LAYERS = ("msum", "pgm", "pipeline", "metacyclic")
# the modules that are not lazy layers: the package, the three it executes
# on import, and cli and jsonio, which only the CLI loads
EAGER = ("__init__", "caps", "groups", "eta", "cli", "jsonio")

# Prints, as JSON, the exit code of one CLI command (argv in sys.argv[1:]),
# the lazy layers that have executed by its end, whether numpy.random
# (about 5 MB resident, with hashlib and OpenSSL) was imported, and which of
# dataclasses and json the command loaded that numpy had not already (an
# older numpy may import them itself).  json is imported only to print.
COMMAND_PROBE = f"""
import contextlib, io, sys, types
import numpy
before = set(sys.modules)
import pgmhsp.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = pgmhsp.cli.main(sys.argv[1:])
loaded = [m for m in {LAYERS!r} if type(sys.modules["pgmhsp." + m]) is types.ModuleType]
stdlib = [m for m in ("dataclasses", "json") if m in sys.modules and m not in before]
import json
print(json.dumps([code, loaded, "numpy.random" in sys.modules, stdlib]))
"""


def run_python(code, *args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        input=stdin_text,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_executes_no_layer():
    # nor registers an exit hook or freezes the heap: only main() may
    out = run_python(
        f"""
import atexit, gc, sys, types
callbacks = atexit._ncallbacks()
import pgmhsp, pgmhsp.cli
for m in {LAYERS!r}:
    module = sys.modules["pgmhsp." + m]
    # bound as a package attribute, and not yet executed
    assert pgmhsp.__dict__[m] is module, m
    assert type(module) is not types.ModuleType, m
assert atexit._ncallbacks() == callbacks
assert gc.get_freeze_count() == 0
print("ok")
"""
    )
    assert out.strip() == "ok"


@pytest.mark.parametrize(
    "argv,stdin_text,expected,reads_json",
    [
        (["eta-stats", "--group", "zn N=7 p=3 mu=2", "--k", "1"], None, [], False),
        (
            ["eta-stats", "--group", "zn N=7 p=3 mu=2", "--k", "2", "--mode", "sampled",
             "--samples", "50", "--seed", "1"],
            None,
            [],
            False,
        ),
        (
            ["solve-msum"],
            '{"group": "zn N=7 p=3 mu=2", "k": 1, "x": [1], "w": 3}',
            ["msum"],
            True,
        ),
        (
            ["run-hsp", "--algo", "stripped", "--group", "zn N=7 p=3 mu=2",
             "--trials", "10", "--seed", "1"],
            None,
            ["metacyclic"],
            False,
        ),
        (
            ["run-hsp", "--algo", "stripped", "--group", "zn N=7 p=3 mu=2", "--exact"],
            None,
            ["metacyclic"],
            False,
        ),
        (
            ["pgm-report", "--group", "zn N=7 p=3 mu=2", "--k", "1"],
            None,
            ["pgm"],
            False,
        ),
        (
            ["run-hsp", "--algo", "pgm", "--fixture", "{fixture}", "--k", "1", "--seed", "1"],
            None,
            ["pgm", "pipeline"],
            True,
        ),
    ],
    ids=["eta-stats", "eta-stats-sampled", "solve-msum", "run-hsp-stripped",
         "run-hsp-stripped-exact", "pgm-report", "run-hsp-pgm"],
)
def test_command_executes_only_its_layers(tmp_path, argv, stdin_text, expected, reads_json):
    # every seeded draw comes from random.Random; no command loads
    # numpy.random, none loads dataclasses, and only the commands that read
    # a JSON document load json
    fixture = tmp_path / "fixture.json"
    fixture.write_text('{"group": "zn N=7 p=3 mu=2", "hidden": {"d": 1}}')
    argv = [arg.format(fixture=fixture) for arg in argv]
    probe = run_python(COMMAND_PROBE, *argv, stdin_text=stdin_text)
    code, loaded, numpy_random, stdlib = json.loads(probe)
    assert code == 0
    assert loaded == expected
    assert not numpy_random
    assert stdlib == (["json"] if reads_json else [])


def test_getattr_loads_the_layer():
    # A tracer that wraps functions found in sys.modules relies on this:
    # the lazy module is there before any command runs, and its first
    # getattr executes it in place.
    out = run_python(
        """
import sys, types
import pgmhsp
module = sys.modules["pgmhsp.pgm"]
fn = getattr(module, "pgm_report")
assert type(module) is types.ModuleType
assert sys.modules["pgmhsp.pgm"] is module and pgmhsp.pgm is module
assert vars(module)["pgm_report"] is fn
assert fn.__module__ == "pgmhsp.pgm"
assert module.__file__.endswith("pgm.py")
print("ok")
"""
    )
    assert out.strip() == "ok"


def test_exported_names_are_their_home_objects():
    out = run_python(
        """
import importlib, json
import pgmhsp
homes = {}
for name in pgmhsp.__all__:
    obj = getattr(pgmhsp, name)
    home = importlib.import_module(obj.__module__)
    assert obj.__module__.startswith("pgmhsp."), name
    assert getattr(home, name) is obj, name
    homes[name] = obj.__module__
assert set(pgmhsp.__all__) <= set(dir(pgmhsp))
namespace = {}
exec("from pgmhsp import *", namespace)
assert {n for n in namespace if n != "__builtins__"} == set(pgmhsp.__all__)
try:
    pgmhsp.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown name did not raise AttributeError")
print(json.dumps(homes))
"""
    )
    homes = json.loads(out)
    assert set(homes.values()) == {f"pgmhsp.{m}" for m in ("caps", "groups", "eta", *LAYERS)}


def test_every_module_is_eager_or_a_layer():
    # a module added or removed without updating LAYERS or EAGER fails here
    import pgmhsp

    modules = {path.stem for path in pathlib.Path(pgmhsp.__file__).parent.glob("*.py")}
    assert sorted(modules) == sorted((*EAGER, *LAYERS))


@pytest.mark.parametrize("workload", ["report", "solve", "census", "stripped"])
def test_benchmark_workloads_build(tmp_path, monkeypatch, workload):
    # bench/workloads.py builds its ops from package names (parse_group_spec,
    # subgroup_order, phi_apply, conj_apply, subgroup_closure, MSumInstance,
    # solve_bruteforce); a name it reads that the package drops fails here.
    # No bytecode is written under bench/.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    assert workloads.build(workload, 1, str(tmp_path))
