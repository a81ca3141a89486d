import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qcong

MODULES = sorted(info.name for info in pkgutil.iter_modules(qcong.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ entry only breaks `from qcong.<name> import *`
    module = importlib.import_module(f"qcong.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), name
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from qcong.{name} import *", namespace)


def test_package_imports_resolve():
    # every name qcong/__init__.py imports exists in its module and is the
    # same object on the package
    tree = ast.parse(Path(qcong.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"qcong.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
            bound = getattr(qcong, alias.asname or alias.name)
            assert bound is getattr(module, alias.name)


def test_cli_import_loads_no_dataclasses_or_inspect():
    # plain classes and tuples keep both modules out of every command's start
    src = str(Path(qcong.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, qcong.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    child = subprocess.run([sys.executable, "-c", probe], env=env,
                           capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stdout) == (0, "[]\n"), child.stderr
