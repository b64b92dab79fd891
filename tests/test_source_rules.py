"""Checks that must hold under `python -O`, a guard that keeps them so, a
guard that keeps the package free of third-party imports, one that keeps
its start-up free of slow stdlib imports, one that keeps every
command-line option in use, and one that keeps every public function
reached from the package itself."""

import argparse
import ast
import subprocess
import sys
from pathlib import Path

import quadfactor
from quadfactor import cli

SRC = Path(quadfactor.__file__).parent


def test_explicit_raises_survive_python_O():
    # explicit raises that replaced asserts: a D y^2 - 1 that is no square,
    # and density bounds that miss the published decimals
    code = ("from quadfactor import constants, errors, stormer\n"
            "try:\n"
            "    stormer._x_from_y(2, 2)\n"
            "except ArithmeticError:\n"
            "    print('raised')\n"
            "try:\n"
            "    constants._bounds(1.5, 1.5)\n"
            "except errors.NonConvergenceError:\n"
            "    print('raised')\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         cwd=SRC.parent, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised\nraised\n"


def test_cli_import_skips_dataclasses_and_inspect():
    # importing dataclasses (which pulls in inspect, ast, dis, tokenize)
    # added 8-13 ms to every CLI start
    code = ("import sys\n"
            "bare = set(sys.modules)\n"
            f"sys.path.insert(0, {str(SRC.parent)!r})\n"
            "import quadfactor.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - bare)))\n")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_no_assert_or_debug_in_package():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name)
                                                and node.id == "__debug__"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_package_imports_only_stdlib_and_itself():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "quadfactor":
                    offenders.append(f"{path.name}:{node.lineno}: {name}")
    assert offenders == []


def test_every_cli_option_is_read():
    # `--threads` is kept, and ignored, only so that existing command
    # lines passing it still parse; nothing else may be a no-op flag
    ignored = {"threads"}
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}
    unread = []
    for action in cli.build_parser()._actions:
        if not isinstance(action, argparse._SubParsersAction):
            continue
        for name, sub in action.choices.items():
            for opt in sub._actions:
                if not isinstance(opt, argparse._HelpAction) and opt.dest not in read | ignored:
                    unread.append(f"{name}: {opt.dest}")
    assert unread == []


def test_every_public_function_is_reached():
    # a public function or class that no module of the package refers to
    # serves only tests; these two are the oracles of the benchmark's
    # census-mixed check in perfbench/workloads.py, and the tests read them
    # only to check them
    kept = {
        "arith.p_plus",  # P+ oracle of the census-mixed benchmark check
        "primitive.classify_definitional",  # the definitional scan of that check
    }
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name.split(".")[-1] for alias in node.names)
    unreached = [f"{mod}.{node.name}" for mod, tree in trees.items() for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not node.name.startswith("_") and node.name not in used]
    assert set(unreached) == kept
