"""Rules that hold for every module of the package."""
import importlib
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
