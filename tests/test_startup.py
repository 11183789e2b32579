"""What a fresh CLI process imports, and that it prints what an in-process call does.

The other CLI tests call ``cli.main`` inside the pytest process, where numpy
is already loaded, so they cannot see what start-up imports. These cases run
each command in a new interpreter with the package on ``PYTHONPATH``: the
closed-form commands and the errors found before a run must not load numpy
or generate a row kernel, while every module the benchmark's tracer patches
is still loaded.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hologossip
from hologossip.cli import main

SRC = str(Path(hologossip.__file__).resolve().parent.parent)
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

#: Runs ``cli.main`` on argv, then prints the exit code, the loaded modules and
#: the number of generated row kernels as the last line.
CHILD = ("import json, sys, hologossip.cli as c; code = c.main(sys.argv[1:]); "
         "kernels = sys.modules['hologossip.engine']._row_kernel.cache_info().currsize; "
         "print(json.dumps({'code': code, 'modules': sorted(sys.modules), 'kernels': kernels}))")

GRAPH = {"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]}
WEIGHTS = [
    {"edge": [1, 2], "a_ij": "1/5", "a_ji": "3/10"},
    {"edge": [2, 3], "a_ij": "1/4", "a_ji": "1/2"},
    {"edge": [1, 3], "a_ij": "1/5", "a_ji": "3/5"},
]
TARGET = ["--target", "1/2,1/3,1/6"]


@pytest.fixture
def paths(tmp_path):
    (tmp_path / "g.json").write_text(json.dumps(GRAPH))
    (tmp_path / "w.json").write_text(json.dumps(WEIGHTS))
    return str(tmp_path / "g.json"), str(tmp_path / "w.json"), tmp_path


def _fresh(argv, cwd) -> tuple:
    """(exit code, stdout without the last line, loaded module names, generated
    row kernels) of argv in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("HOLOGOSSIP_LOG", None)
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    status = json.loads(last)
    return status["code"], out + "\n" if out else "", set(status["modules"]), status["kernels"]


def _traced_modules() -> set:
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {home for _, home, _ in tracer.FUNCTIONS} | {home for _, home, _, _ in tracer.METHODS}


@pytest.mark.parametrize("argv, code", [
    (["check", "{g}", "{w}"], 0),
    (["limit", "{g}", "{w}"], 0),
    (["witness", "{g}", "{w}"], 0),
    (["design", "{g}", *TARGET, "--x", "1/2,1/2,1/2"], 0),
    (["design", "{g}", *TARGET, "--x", "3/10,3/5,1/2", "-o", "{tmp}/out.json"], 0),
    (["limit", "{g}", "{w}", "--base", "9"], 2),
    (["simulate", "{g}", "{w}", "--random-steps", "0", "--seed", "1"], 2),
    (["simulate", "{g}", "{w}", "--random-steps", "150000", "--seed", "1",
      "--trace", "{tmp}/missing/t.tsv"], 2),
    (["design", "{g}", *TARGET, "--x", "1/2,1/2,1/2", "-o", ""], 2),
])
def test_closed_form_commands_start_without_numpy(paths, argv, code):
    g, w, tmp = paths
    got, _, modules, kernels = _fresh([a.format(g=g, w=w, tmp=tmp) for a in argv], tmp)
    assert got == code
    assert "numpy" not in modules and "logging" not in modules and kernels == 0
    assert _traced_modules() <= modules


@pytest.mark.parametrize("argv", [
    ["simulate", "{g}", "{w}", "--random-steps", "500", "--seed", "3"],
    ["simulate", "{g}", "{w}", "--random-steps", "3", "--seed", "7"],
    ["simulate", "{g}", "{w}", "--random-steps", "1234", "--seed", "7", "--trace", "{tmp}/t.tsv"],
    ["design", "{g}", *TARGET, "--seed", "5"],
    ["verify", "--criteria", "10"],
])
def test_numeric_commands_load_numpy_and_print_as_in_process(paths, capsys, argv):
    g, w, tmp = paths
    argv = [a.format(g=g, w=w, tmp=tmp) for a in argv]
    code, out, modules, kernels = _fresh(argv, tmp)
    assert "numpy" in modules
    # simulate and verify step float-list rows, through advance or block
    assert (kernels > 0) == (argv[0] != "design")
    assert (code, out) == (main(argv), capsys.readouterr().out)
