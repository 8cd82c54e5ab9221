"""Module structure of the package: imports stay at module level, acyclic."""

import ast
import pathlib
import subprocess
import sys

import vmlkit

SRC = pathlib.Path(vmlkit.__file__).parent


def _vmlkit_modules(node) -> list:
    """The vmlkit modules an import statement names."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            if node.module:
                return [node.module.split(".")[0]]
            return [alias.name for alias in node.names]
        if node.module and node.module.split(".")[0] == "vmlkit":
            return [node.module]
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] == "vmlkit"]
    return []


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_no_function_local_vmlkit_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(_parse(path)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if _vmlkit_modules(node):
                    found.append(f"{path.name}:{node.lineno} in {func.name}")
    assert found == []


# the scipy modules a fresh interpreter has loaded, printed by the scripts
# below: numpy is vmlkit's only run-time dependency
_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"

_SIMULATE = ("rc = cli.main(['simulate', '--out', sys.argv[1], '--set', 'n_x=4',"
             " '--set', 'n_v=8', '--set', 'dt=0.1', '--set', 't_end=0.1',"
             " '--set', 'collision_solver={solver}', '--set', 'direct_max_nv=8'])\n"
             "assert rc == 0, rc\n")


def _fresh_run(script, *args) -> str:
    """The last line a script prints in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          cwd=SRC.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout.strip().splitlines()[-1]


def test_direct_run_does_not_import_scipy_sparse(tmp_path):
    # the dense rows of the direct propagator are assembled with numpy alone,
    # so a direct run's set-up does not pay for importing scipy.sparse; and
    # L of the report's B weights comes from the blocks, so the run never
    # starts the matrix-free operators' convolution pool
    script = ("import sys\n"
              "from vmlkit import cli, landau\n"
              + _SIMULATE.format(solver="direct")
              + f"print('scipy.sparse' in sys.modules, len(landau._POOLS), {_SCIPY_MODULES})\n")
    assert _fresh_run(script, tmp_path) == "False 0 []"


def test_cg_run_does_not_import_scipy(tmp_path):
    script = ("import sys\n"
              "from vmlkit import cli\n"
              + _SIMULATE.format(solver="cg")
              + f"print({_SCIPY_MODULES})\n")
    assert _fresh_run(script, tmp_path) == "[]"


def test_import_does_not_load_scipy():
    assert _fresh_run(f"import sys\nimport vmlkit\nprint({_SCIPY_MODULES})\n") == "[]"


def test_diagnostics_does_not_import_evolve():
    tree = _parse(SRC / "diagnostics.py")
    imported = {m for node in ast.walk(tree) for m in _vmlkit_modules(node)}
    assert "evolve" not in imported and "vmlkit.evolve" not in imported
    assert "maxwell" in imported


# Top-level definitions that only the tests call, each a reference the
# tests check the production path against: the unsplit right-hand side
# (the Strang stepper's wiring oracle), the physical-space moments (the
# spectral moments' oracle; the benchmark also counts its calls) and the
# fluid residuals and interpolation ratio (checks on recorded runs).
TEST_REFERENCES = {
    ("evolve", "rhs_full"),
    ("macro_micro", "moments"),
    ("macro_micro", "fluid_residuals"),
    ("diagnostics", "interpolation_monitor"),
}


def _annotations(tree) -> set:
    """ids of the annotation nodes of a module: a type hint is not a use."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if arg is not None and arg.annotation is not None:
                    out.add(id(arg.annotation))
            if node.returns is not None:
                out.add(id(node.returns))
        elif isinstance(node, ast.AnnAssign):
            out.add(id(node.annotation))
    return out


def _uses(path, tree) -> list:
    """(top-level statement, (module, name)) for each vmlkit name it uses.

    A use is a bare name in its own module, ``module.name`` through a
    ``from . import module [as alias]``, or ``from .module import name``.
    """
    alias = {a.asname or a.name: a.name for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level and not node.module
             for a in node.names}
    skip = _annotations(tree)
    out = []
    for stmt in tree.body:
        stack = [stmt]
        while stack:
            node = stack.pop()
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name):
                out.append((stmt, (path.stem, node.id)))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                out.append((stmt, (alias.get(node.value.id, node.value.id), node.attr)))
            elif isinstance(node, ast.ImportFrom) and node.level and node.module:
                out += [(stmt, (node.module, a.name)) for a in node.names]
            stack.extend(ast.iter_child_nodes(node))
    return out


# Methods and properties that only the tests and demos read: the monitor
# series as arrays (tests and demos/05).
TEST_METHOD_REFERENCES = {("MonitorSeries", "as_arrays")}


def test_every_definition_is_used_by_the_package():
    # one implementation per concept: a top-level function or class that
    # nothing in the package calls is a twin only the tests pin, unless it
    # is one of the documented test references; the package's re-exports
    # in __init__ are not uses.  Likewise a method or property of a package
    # class (dunders aside) must be read as ``.name`` somewhere in the
    # package outside its own definition
    defs, uses, methods, attrs = {}, [], {}, []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = _parse(path)
        defs.update({(path.stem, node.name): node for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))})
        uses += _uses(path, tree)
        methods.update({(cls.name, node.name): node for cls in tree.body
                        if isinstance(cls, ast.ClassDef) for node in cls.body
                        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")})
        attrs += [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    unused = {key for key, node in defs.items()
              if not any(used == key and stmt is not node for stmt, used in uses)}
    assert unused == TEST_REFERENCES
    unread = set()
    for (cls, name), node in methods.items():
        own = {id(n) for n in ast.walk(node)}
        if not any(a.attr == name and id(a) not in own for a in attrs):
            unread.add((cls, name))
    assert unread == TEST_METHOD_REFERENCES
