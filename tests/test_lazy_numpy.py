"""numpy loads on first array use: the exact subcommands run without it.

The test session imports numpy itself, so each check runs in a fresh
interpreter.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import contractlab

SRC = Path(contractlab.__file__).resolve().parent

DESK = {"F": [["1", "0"], ["0", "1"]], "r": ["0", "1"], "c": ["0", "1/2"]}
UNIFORM = {"kind": "piecewise", "breakpoints": ["0", "1"], "densities": ["1"]}
TWO_TYPES = {"kind": "discrete", "points": ["1/4", "3/4"], "weights": ["1/2", "1/2"]}
SETS = ["--universe", "3", "--sets", "1,2;2;1,3;3"]


def fresh_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


def test_exact_subcommands_load_no_numpy(tmp_path):
    files = {}
    for name, payload in (("desk", DESK), ("uniform", UNIFORM), ("types", TWO_TYPES)):
        files[name] = str(tmp_path / f"{name}.json")
        Path(files[name]).write_text(json.dumps(payload))
    commands = [
        ["solve-discrete", "--instance", files["desk"], "--dist", files["types"]],
        ["ptas", "--instance", files["desk"], "--dist", files["uniform"], "--eps", "1"],
        ["reduce-setcover", *SETS],
        ["verify-reduction", *SETS, "--cover", "2,3"],
    ]
    # the lazy module registers the name numpy itself; a load executes
    # submodules (numpy._core on numpy 2, numpy.core on numpy 1)
    proc = fresh_python(
        "import contextlib, io, json, sys\n"
        "import contractlab\n"
        "from contractlab import cli\n"
        "codes = []\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(argv))\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('numpy.'))]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0, 0], []]

    # bandit-pac needs numpy: loaded by the lazy binding, or imported before
    # contractlab and taken as it is, it prints the same bytes
    pac = ["bandit-pac", "--instance", files["desk"], "--dist", files["uniform"],
           "--eta", "5", "--delta", "0.1", "--seed", "0"]
    run_pac = f"from contractlab import cli\nraise SystemExit(cli.main({pac!r}))\n"
    lazy = fresh_python(run_pac)
    eager = fresh_python("import numpy\n" + run_pac)
    assert lazy.returncode == eager.returncode == 0, lazy.stderr + eager.stderr
    assert '"dimension": 93' in lazy.stdout
    assert lazy.stdout == eager.stdout


def numpy_imports(path: Path) -> list[str]:
    """The module's import statements of numpy, and its calls of find_spec,
    import_module or __import__ given the name numpy."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in (
            "find_spec", "import_module", "__import__"
        ):
            names = [str(arg.value) for arg in node.args[:1] if isinstance(arg, ast.Constant)]
        else:
            continue
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            hits.append(f"{path.name}: {ast.unparse(node)}")
    return hits


def test_src_holds_one_numpy_import():
    # a second import statement would load the lazy module in full at import
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in numpy_imports(path)]
    assert hits == ["numerics.py: importlib.util.find_spec('numpy')"]


def test_missing_numpy_fails_at_import():
    proc = fresh_python(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "try:\n"
        "    import contractlab\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name, exc)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "numpy No module named 'numpy'\n"
