"""No package module keeps process-wide caches or mutable module-level state.

Memoised results belong to the object they describe (a situation's LP
memo lives on the situation), so they are freed with it and one analysis
cannot see another's entries.
"""

import ast
from pathlib import Path

import permit_games

PACKAGE = Path(permit_games.__file__).parent

CACHE_DECORATORS = {"lru_cache", "cache"}
EMPTY_CONSTRUCTORS = {"set", "dict", "list"}


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _is_empty_container(node) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in EMPTY_CONSTRUCTORS and not node.args and not node.keywords)


def global_state(source: str) -> list[str]:
    """Cache decorators anywhere, and empty containers bound at module level."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += [(d.lineno, f"@{_decorator_name(d)} on {node.name}")
                      for d in node.decorator_list
                      if _decorator_name(d) in CACHE_DECORATORS]
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if _is_empty_container(node.value):
            found += [(node.lineno, f"{ast.unparse(t)} = {ast.unparse(node.value)}")
                      for t in targets]
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_checker_sees_caches_and_empty_module_containers():
    source = (
        "import functools\nfrom functools import cache, cached_property, lru_cache\n"
        "_a = {}\n_b: list = []\nc = set()\nd = dict(); e = list()\n"
        "TABLE = {1: 2}\nPAIR = [1, 2]\nSEEN = set((1,))\n"
        "@lru_cache(maxsize=None)\ndef f(x):\n    memo = {}\n    return memo\n"
        "@functools.cache\ndef g(): pass\n"
        "class C:\n    @cached_property\n    def memo(self): return {}\n"
        "    @functools.lru_cache\n    def h(self): pass\n")
    assert global_state(source) == [
        "_a = {} (line 3)", "_b = [] (line 4)", "c = set() (line 5)",
        "d = dict() (line 6)", "e = list() (line 6)",
        "@lru_cache on f (line 10)", "@cache on g (line 14)",
        "@lru_cache on h (line 19)"]


def test_package_modules_keep_no_global_state():
    found = {
        path.name: state
        for path in sorted(PACKAGE.glob("*.py"))
        if (state := global_state(path.read_text()))}
    assert found == {}
