"""The package runs on numpy alone, the kernel on nothing of the package,
and every name the package exports exists."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import flocklevels

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_scipy():
    code = (
        "import sys, flocklevels; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_kernel_imports_nothing_from_the_package():
    # read, not imported: importing flocklevels.kernel loads the whole package
    tree = ast.parse((SRC / "flocklevels" / "kernel.py").read_text())
    modules = [
        (node.lineno, "." * node.level + (node.module or ""))
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    ] + [
        (node.lineno, a.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for a in node.names
    ]
    package = [(line, m) for line, m in modules if m.split(".")[0] in ("", "flocklevels")]
    assert package == []


def test_public_names_resolve():
    modules = [flocklevels] + [
        importlib.import_module(f"flocklevels.{m.name}")
        for m in pkgutil.iter_modules(flocklevels.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert missing == []
