"""Rules that hold for every module of the package.

Run as a script, `PYTHONPATH=src python tests/test_package.py` prints each
module's code lines (`code_lines`) and their total.
"""
import ast
import importlib
import pathlib
import pkgutil
import textwrap

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


MAX_MODULE_LINES = 450


def test_no_module_over_450_lines():
    """Every module of the package fits in 450 physical lines: a module
    that outgrows it holds more than one concept and is split by
    concept, as `engine` was into `config`, `delivery` and `engine`."""
    lengths = {path.name: len(path.read_text(encoding="utf-8").splitlines())
               for path in pathlib.Path(mbsfnsim.__file__).parent.glob("*.py")}
    assert len(lengths) > 5
    assert {name: n for name, n in lengths.items()
            if n > MAX_MODULE_LINES} == {}


def test_reads_no_environment_variable():
    """No module reads `os.environ` or `os.getenv`: a run's settings are
    its config fields and command-line arguments, and a setting derived
    from the host comes from what the process can measure, such as
    `engine.usable_cpus()`."""
    reads = []
    for path in sorted(pathlib.Path(mbsfnsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("environ", "getenv")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"):
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []


def _referenced_names(node):
    """Every name `node` mentions: as a name, an attribute, an import or a
    string, since perfbench's tracer looks functions up by their name."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def test_no_code_only_tests_call():
    """Every module-level function and class of the package, and every
    method of its classes but the special (dunder) ones, is used by the
    package or by perfbench's code (not its tests) outside its own
    definition: library code does not exist only to serve tests.  A method
    counts as used where other code names it, as an attribute, a name or
    a string."""
    repo = pathlib.Path(__file__).parents[1]
    sources = sorted((repo / "src" / "mbsfnsim").glob("*.py"))
    bench = [path for path in sorted((repo / "perfbench").glob("*.py"))
             if not path.name.startswith("test_")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sources + bench}
    # Who names what: top-level statements, and each class's own
    # statements (its methods) one by one.
    users, member_users = {}, {}
    for tree in trees.values():
        for top in tree.body:
            for name in _referenced_names(top):
                users.setdefault(name, []).append(top)
            members = top.body if isinstance(top, ast.ClassDef) else [top]
            for member in members:
                for name in _referenced_names(member):
                    member_users.setdefault(name, []).append(member)
    unused = [f"{path.name}:{node.name}" for path in sources
              for node in trees[path].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and all(user is node for user in users.get(node.name, ()))]
    unused += [f"{path.name}:{cls.name}.{node.name}" for path in sources
               for cls in trees[path].body if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("__")
               and all(user is node
                       for user in member_users.get(node.name, ()))]
    assert len(trees) > len(sources) > 5
    assert unused == []


def test_only_engine_starts_pools():
    """Only `engine` forks (`engine.forked`, the fading child), names a
    thread executor or names a process executor (`engine.run_all`, the
    processes of `compare`, `replicate` and the battery); every other
    module uses the fork it is handed, so no object below a run has a
    thread or process lifecycle."""
    threads, processes = set(), set()
    for path in sorted(pathlib.Path(mbsfnsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set(_referenced_names(tree))
        forks = any(
            isinstance(n, ast.Attribute) and n.attr.startswith("fork")
            and isinstance(n.value, ast.Name) and n.value.id == "os"
            or isinstance(n, ast.ImportFrom) and n.module == "os"
            and any(a.name.startswith("fork") for a in n.names)
            for n in ast.walk(tree))
        if forks or "ThreadPoolExecutor" in names:
            threads.add(path.name)
        if "ProcessPoolExecutor" in names:
            processes.add(path.name)
    assert threads == {"engine.py"}
    assert processes == {"engine.py"}


# The functions that check input from outside the program: the config and
# its CQI table, the command line's readers, and the Runner's and
# `replicate`'s guards on how they are called.
_BOUNDARY = {"config.py:ScenarioConfig.__post_init__",
             "link.py:CqiTable.__post_init__", "link.py:load_cqi_table",
             "cli.py:_parse_bool", "cli.py:_parse_policy",
             "cli.py:parse_scenario_text", "cli.py:resolve_scenario_path",
             "cli.py:_check_out", "cli.py:_configs",
             "engine.py:Runner.record", "engine.py:replicate"}


def _raise_sites(node, scope):
    """`scope` (a function's dotted name, or "" at module level) of every
    `raise` under `node`, each with its line."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield from _raise_sites(
                child, f"{scope}.{child.name}" if scope else child.name)
        else:
            if isinstance(child, ast.Raise):
                yield scope, child.lineno
            yield from _raise_sites(child, scope)


def test_raises_only_at_the_boundary():
    """Input is checked once, where it enters: every `raise` lies in a
    boundary function (`_BOUNDARY`), and no module defines an exception
    class.  Below the boundary a value is valid because a checked
    `ScenarioConfig` made it so, and is not checked again."""
    sites = []
    for path in sorted(pathlib.Path(mbsfnsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [(f"{path.name}:{scope}", line)
                  for scope, line in _raise_sites(tree, "")]
    modules = [importlib.import_module(f"mbsfnsim.{m.name}")
               for m in pkgutil.iter_modules(mbsfnsim.__path__)]
    classes = [f"{module.__name__}.{name}"
               for module in modules for name, value in vars(module).items()
               if isinstance(value, type) and issubclass(value, BaseException)
               and value.__module__ == module.__name__]
    outside = [f"{scope}:{line}" for scope, line in sites
               if scope not in _BOUNDARY]
    assert not outside and not classes, (
        f"raise outside the boundary: {outside}; exception classes: "
        f"{classes}")
    assert len(sites) > 20


def code_lines(source: str) -> int:
    """The lines of `source` that hold code: non-blank, not a comment alone
    and not inside a module, class or function docstring."""
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef,
                  ast.AsyncFunctionDef)
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, documented)
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#")
               and number not in docstrings)


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    source = textwrap.dedent('''\
        """Module docstring,
        two lines."""
        import os  # a comment after code counts

        # A comment alone does not.
        def f(x):
            """One line."""
            return x


        class C:
            """Two
            lines."""
            text = """a string that is not a docstring
        counts on each of its lines"""
        ''')
    assert code_lines(source) == 6


if __name__ == "__main__":
    total = 0
    for path in sorted(pathlib.Path(mbsfnsim.__file__).parent.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:16} {n:5}")
    print(f"{'total':16} {total:5}")
