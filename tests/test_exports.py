import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import ModuleType

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
    # qcong/__init__.py only star-imports modules, so each module's __all__
    # is the one declaration of what the package exports
    tree = ast.parse(Path(qcong.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    assert [[alias.name for alias in node.names] for node in imports] == \
        [["*"]] * len(imports)
    modules = [importlib.import_module(f"qcong.{node.module}") for node in imports]
    for module in modules:
        assert [n for n in module.__all__
                if getattr(qcong, n) is not getattr(module, n)] == [], module
    names = [n for module in modules for n in module.__all__]
    assert sorted(n for n, count in Counter(names).items() if count > 1) == []
    public = {n for n in dir(qcong) if not n.startswith("_")
              and not isinstance(getattr(qcong, n), ModuleType)}
    assert public == set(names)


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
