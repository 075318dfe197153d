"""Every top-level function and class, and every method, in the package
has a user in the package itself; code that only tests reach does not
belong there."""
import ast
from pathlib import Path

import answergen

PACKAGE = Path(answergen.__file__).parent

# Kept as references that tests or the benchmark compare the program against.
KEPT_REFERENCES = {"elbo_loss", "gradient_check", "trace_score"}


def package_trees():
    """Each module of the package, parsed, by file name."""
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def is_cli_command(node):
    """Decorated with ``@<group>.command(...)`` or ``@click.group(...)``."""
    for deco in node.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def is_registry(node):
    """The ``PRIMITIVES`` table, which lists the primitives but calls none."""
    return isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "PRIMITIVES"


def referenced_names(tree, skip):
    """Names, attributes and imported names used in ``tree``, outside ``skip``
    and the primitive registry."""
    names = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip or is_registry(node):
            continue
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.alias):
            names.append(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_definition_is_used_in_the_package():
    trees = package_trees()
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in KEPT_REFERENCES or is_cli_command(node):
                continue
            if not any(node.name in referenced_names(other, skip=node)
                       for other in trees.values()):
                unused.append(f"{module}:{node.name}")
    assert not unused, f"defined but never used inside the package: {unused}"


def test_every_method_is_read_in_the_package():
    """A method other than a dunder is read as an attribute somewhere in the
    package: called on an instance, through ``super()`` or as a property."""
    trees = package_trees()
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    unused = [f"{module}:{cls.name}.{method.name}"
              for module, tree in trees.items()
              for cls in tree.body if isinstance(cls, ast.ClassDef)
              for method in cls.body if isinstance(method, ast.FunctionDef)
              and not method.name.startswith("__") and method.name not in attributes]
    assert not unused, f"methods never read inside the package: {unused}"


def test_every_module_level_name_is_read_in_the_package():
    """A name assigned at module level, other than a dunder and the
    ``PRIMITIVES`` table the benchmark reads, is read somewhere in the
    package: loaded as a name, read as an attribute or imported."""
    trees = package_trees()
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    unused = [f"{module}:{name.id}"
              for module, tree in trees.items()
              for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
              for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
              for name in ast.walk(target) if isinstance(name, ast.Name)
              and not name.id.startswith("__") and name.id != "PRIMITIVES"
              and name.id not in read]
    assert not unused, f"module-level names never read inside the package: {unused}"


def test_only_autodiff_decides_about_threads():
    """One CPU probe and one parallel fork: no other module of the package
    reads the CPU affinity or makes an executor, and in autodiff only
    ``in_parallel`` names an executor, a future or ``submit``."""
    names = {"sched_getaffinity", "ThreadPoolExecutor"}
    trees = package_trees()
    found = sorted({f"{module}:{name}" for module, tree in trees.items()
                    if module != "autodiff.py"
                    for name in referenced_names(tree, skip=None) if name in names})
    assert not found, f"thread decisions outside autodiff: {found}"
    forking = {"ThreadPoolExecutor", "Future", "submit"}
    found = sorted({f"{node.name}:{name}" for node in ast.walk(trees["autodiff.py"])
                    if isinstance(node, ast.FunctionDef) and node.name != "in_parallel"
                    for name in referenced_names(node, skip=None) if name in forking})
    assert not found, f"forks in autodiff outside in_parallel: {found}"
