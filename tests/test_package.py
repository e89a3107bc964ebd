"""Rules that hold for every module of the package."""
import ast
import importlib
import pathlib
import pkgutil

import numpy as np

import mbsfnsim


def test_no_module_level_mutable_state():
    """No module holds a dict, list, set or writeable array at module
    level: a run's state lives in the objects the run makes, so runs can
    share a process and a test cannot leak state into the next one."""
    modules = [mbsfnsim] + [importlib.import_module(f"mbsfnsim.{m.name}")
                            for m in pkgutil.iter_modules(mbsfnsim.__path__)]
    mutable = [f"{module.__name__}.{name}"
               for module in modules
               for name, value in vars(module).items()
               if not name.startswith("__")
               and (isinstance(value, (dict, list, set))
                    or isinstance(value, np.ndarray) and value.flags.writeable)]
    assert len(modules) > 5
    assert mutable == []


def test_reads_no_environment_variable():
    """No module reads `os.environ` or `os.getenv`: a run's settings are
    its config fields and command-line arguments, and a setting derived
    from the host comes from what the process can measure, such as
    `channel.usable_cpus()`."""
    reads = []
    for path in sorted(pathlib.Path(mbsfnsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("environ", "getenv")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"):
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []
