import ast
import os
import subprocess
import sys
from pathlib import Path

import twistnorm

PACKAGE = Path(twistnorm.__file__).parent


def module_imports():
    """Each module's package-relative imports, by module name."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:
                    deps.update(a.name for a in node.names)
        graph[path.stem] = deps
    return graph


def test_module_graph_is_acyclic():
    graph = module_imports()
    assert all(dep in graph for deps in graph.values() for dep in deps)
    done = set()

    def visit(name, path):
        assert name not in path, f"import cycle: {' -> '.join(path + [name])}"
        if name not in done:
            for dep in graph[name]:
                visit(dep, path + [name])
            done.add(name)

    for name in graph:
        visit(name, [])


def test_seqspace_depends_only_on_errors():
    assert module_imports()["seqspace"] == {"errors"}


def scipy_import_sites():
    """'module.function' of every scipy import in the package."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for node in ast.walk(tree):     # outer functions first, inner win
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(node):
                    owner[child] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                sites.append(f"{path.stem}.{owner.get(node, '<module>')}")
    return sites


def test_scipy_is_imported_only_by_the_envelope_hull():
    assert scipy_import_sites() == ["youngmap.convex_envelope"]


def test_import_loads_no_numpy_polynomial():
    # leggauss is imported inside youngmap._ball_offsets, its one user
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    code = ("import sys, twistnorm\n"
            "print([m for m in sys.modules if m == 'numpy.polynomial'\n"
            "       or m.startswith('numpy.polynomial.')])")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
