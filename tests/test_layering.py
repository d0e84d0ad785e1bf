import ast
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
