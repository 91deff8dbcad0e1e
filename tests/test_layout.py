"""Architecture guard: where networkx, the planarity search, the
classifier and the stepwise contraction may be used.

Parses ``src/turaevgenus/*.py`` with ``ast``.  The rules:

* no module imports networkx, and ``import turaevgenus`` loads none of
  it: networkx is an oracle for the tests only;
* ``planar_embedding`` is called only by ``adgraph.planar_rotations``
  and ``census._is_planar_bipartite``;
* ``planar_rotations`` is called only in ``adgraph``, in
  ``construct.embed_planar`` and in ``verify.suite_doubled_path_moves``,
  which embeds non-bipartite extensions that ``validate_adg`` rejects;
* validation is decided in one place: only ``adgraph._validated``
  compares a ``bipartition`` with ``None``, in ``adgraph`` only the
  cached property ``AdGraph._valid`` calls ``find_bipartition`` and
  ``planar_rotations``, so a graph object is validated at most once,
  and no module names a ``NotValidatedError``;
* in ``adgraph``, ``construct`` and ``ribbon``, ``half_edges`` is
  called only by the cached property ``AdGraph._slots`` and
  ``perm.components`` only by ``AdGraph._comp`` and by the checked
  ``RibbonGraph`` constructor for outside input: one builder per array;
* ``classify_genus`` is called only by ``cli.cmd_classify``: the census
  names its classes by ``families.family_of`` on the key it has;
* no ``families`` function calls ``isomorphic``: parameters are read off
  the contraction's canonical search, not confirmed by a rebuild, and a
  ``families.Family`` has no reader field;
* the refinement helpers ``_refine``, ``_individualise`` and
  ``_first_split`` are called only by ``families.canonical_search``, the
  one search behind the canonical form, the isomorphism witness and the
  automorphism group; no module defines ``automorphism_generators``;
* ``doubled_path_contract`` is called only in ``verify``, by the
  stepwise reference ``stepwise_contract`` and by
  ``suite_doubled_path_moves``: ``canonical_contract`` contracts every
  doubled path in one pass;
* fundamental-cycle labels are built only in
  ``perm.fundamental_cycles``, the one place that XORs a computed value
  into an array entry, and read by ``families.is_reduced`` and census
  stage 2;
* every top-level function, class and assigned name (dunder names
  aside) is named by another top-level statement of some module, or
  exported in ``__all__``: nothing in ``src`` lives for the tests
  alone; and no module defines ``wl_hash``,
  since the census keeps canonical representatives and needs no
  order-fixing hash;
* ``census.simple_connected_graphs`` builds no dict: stage 1 accepts
  each class once by its canonical deletion and keeps no per-level
  table of the forms it has met;
* ``_deletion_keys`` and ``_deletable`` are called only by
  ``census._canonical_deletion``, the one call that decides a stage-1
  child;
* in ``census``, ``find_bipartition`` is called only by
  ``simple_connected_graphs``, once per kept class, and no ``replace``
  call passes ``bipartition=``: atoms and the graphs built from them
  carry the sides stage 1 found;
* no function changes module state: no ``global`` statement, no store
  or ``del`` on a subscript or attribute of a module-level name, and no
  ``append``, ``extend``, ``insert``, ``add``, ``update``,
  ``setdefault``, ``pop``, ``popitem``, ``remove``, ``discard`` or
  ``clear`` call on a module-level name that no local shadows, so the
  census keeps nothing between queries; the one module-level memo is
  the ``functools.cache`` on ``families._forms``, a constant table that
  ``classify_genus`` reads on every call, and the only per-instance
  memos are ``functools.cached_property``s of ``AdGraph``;
* no module has an ``assert`` statement, which ``python -O`` strips:
  every check raises;
* only ``errors.integer``, ``errors.integers`` and the bool-to-bit in
  ``ribbon.is_orientable`` read the name ``int`` as a value (type hints
  and ``is`` tests aside), so no parser converts text outside
  ``errors``.
* every ``TuraevError`` subclass that ``errors`` defines is raised by
  name in some other module: no error class outlives its last
  ``raise``.

Everything else that needs an embedding asks for ``embed_planar(g)``,
which validates a graph that carries no bipartition.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src" / "turaevgenus"


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p))
            for p in sorted(SRC.glob("*.py"))}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _sites(tree: ast.Module, match: Callable[[ast.AST], bool]) -> list[str]:
    """The top-level definition, or ``Class.method`` for a top-level
    class, around each node that ``match`` accepts, or ``<module>``
    outside any."""
    found: list[str] = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, _DEFS):
                if where == "<module>":
                    inner = child.name
                elif node in tree.body and isinstance(node, ast.ClassDef):
                    inner = f"{where}.{child.name}"
            if match(child):
                found.append(inner)
            visit(child, inner)

    visit(tree, "<module>")
    return found


def _calls(tree: ast.Module, name: str, receivers: set[str] | None = None) -> list[str]:
    """``_sites`` of each call of ``name``: a bare name or an attribute,
    of one of the names ``receivers`` when given."""
    def match(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return name == (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) and (
                            receivers is None
                            or getattr(func.value, "id", None) in receivers)
                        else None)

    return _sites(tree, match)


def _call_sites(name: str, receivers: set[str] | None = None) -> set[str]:
    return {f"{module}.{where}" for module, tree in _modules().items()
            for where in _calls(tree, name, receivers)}


def test_no_module_imports_networkx():
    imported: dict[str, set[str]] = {}
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imported.setdefault(module, set()).update(n.split(".")[0] for n in names)
    assert {m for m, names in imported.items() if "networkx" in names} == set()
    # the scan sees imports: adgraph's standard-library ones, for instance
    assert {"dataclasses", "random"} <= imported["adgraph"]


def test_import_leaves_networkx_unloaded():
    code = "import sys, turaevgenus; print('networkx' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_planar_embedding_call_sites():
    assert _call_sites("planar_embedding") == {
        "adgraph.planar_rotations", "census._is_planar_bipartite"}


def test_planar_rotations_call_sites():
    sites = _call_sites("planar_rotations")
    outside = {s for s in sites if not s.startswith("adgraph.")}
    assert outside <= {"construct.embed_planar", "verify.suite_doubled_path_moves"}
    # the scan sees calls in other modules, not only in adgraph
    assert {"adgraph.AdGraph._valid", "construct.embed_planar"} <= sites


def test_one_pass_of_each_array_per_graph():
    """In ``adgraph``, ``construct`` and ``ribbon``, a graph's arrays
    are built only by its two cached properties, and a ribbon graph's
    component count from outside input by the checked constructor."""
    passes = {name: {site for site in _call_sites(name, {"perm", "adgraph"})
                     if site.split(".")[0] in {"adgraph", "construct", "ribbon"}}
              for name in ("half_edges", "components")}
    assert passes == {
        "half_edges": {"adgraph.AdGraph._slots"},
        "components": {"adgraph.AdGraph._comp", "ribbon.RibbonGraph.__post_init__"},
    }
    # the scan skips method calls such as ``dec.graph.components()`` and
    # sees bare names and calls through a module, in any module
    assert "verify.suite_decompose" in _call_sites("components")
    assert "verify.suite_decompose" not in _call_sites(
        "components", {"perm", "adgraph"})
    assert "decompose.decompose" in _call_sites("components", {"perm"})
    # it names a method of a top-level class, not a function nested in one
    nested = ast.parse("class C:\n    def m(self):\n        def f():\n"
                       "            return g()\n        return f\n")
    assert _calls(nested, "g") == ["C.m"]


def test_classify_genus_only_in_cmd_classify():
    assert _call_sites("classify_genus") == {"cli.cmd_classify"}


def test_no_isomorphic_call_in_families():
    sites = _call_sites("isomorphic")
    assert not {s for s in sites if s.startswith("families.")}
    # the scan sees calls of it elsewhere
    assert "verify.suite_doubled_path_moves" in sites


def test_family_has_no_reader():
    """A family is its builder, its minimal members and a printed map."""
    family = next(node for node in _modules()["families"].body
                  if isinstance(node, ast.ClassDef) and node.name == "Family")
    fields = {node.target.id for node in family.body if isinstance(node, ast.AnnAssign)}
    assert fields == {"build", "minimal", "printed"}


def test_one_search_behind_form_and_automorphisms():
    for helper in ("_refine", "_individualise", "_first_split"):
        assert _call_sites(helper) == {"families.canonical_search"}, helper
    defined = {f"{module}.{node.name}" for module, tree in _modules().items()
               for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not {d for d in defined if d.endswith(".automorphism_generators")}
    # the scan sees top-level definitions
    assert "families.canonical_search" in defined


def test_doubled_path_contract_only_in_verify():
    assert _call_sites("doubled_path_contract") == {
        "verify.stepwise_contract", "verify.suite_doubled_path_moves"}


def test_fundamental_cycle_labels_only_in_perm():
    """Labels are built by XOR-accumulating bits along a spanning tree;
    a constant toggle such as the bracket's Gray-code flip is not that."""
    builders = set()
    for module, tree in _modules().items():
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.AugAssign)
                        and isinstance(node.op, ast.BitXor)
                        and isinstance(node.target, ast.Subscript)
                        and not isinstance(node.value, ast.Constant)):
                    builders.add(f"{module}.{getattr(top, 'name', '<module>')}")
    assert builders == {"perm.fundamental_cycles"}
    assert _call_sites("fundamental_cycles") == {
        "families.is_reduced",
        "census._even_multiplicity_assignments",
    }



def _names(node: ast.AST) -> set[str]:
    """The bare names and attribute names that ``node`` reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _defines(top: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function or class, or
    the non-dunder names an assignment binds."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return [top.name]
    targets = (top.targets if isinstance(top, ast.Assign)
               else [top.target] if isinstance(top, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)
            and not (n.id.startswith("__") and n.id.endswith("__"))]


def _unused(modules: dict[str, ast.Module]) -> list[str]:
    """The top-level functions, classes and assigned names that no other
    top-level statement names and ``__init__.__all__`` does not
    export."""
    exported = set()
    for node in modules["__init__"].body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "__all__"):
            exported = set(ast.literal_eval(node.value))
    naming: dict[str, set[str]] = {}  # each name, and the statements naming it
    defined = []
    for module, tree in modules.items():
        for top in tree.body:
            defines = _defines(top)
            where = f"{module}.{defines[0] if defines else '<module>'}"
            for name in _names(top):
                naming.setdefault(name, set()).add(where)
            defined += [(f"{module}.{name}", name) for name in defines]
    return [where for where, name in defined
            if name not in exported and not naming.get(name, set()) - {where}]


def test_every_top_level_definition_is_used():
    modules = _modules()
    assert _unused(modules) == []
    assert not [f"{module}.wl_hash" for module, tree in modules.items()
                for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "wl_hash"]
    # the scan flags a definition that only names itself
    modules["orphan"] = ast.parse("def orphan(n):\n    return orphan(n - 1)\n")
    assert _unused(modules) == ["orphan.orphan"]
    # and an assigned name that no other statement reads, dunders aside
    modules["orphan"] = ast.parse("LIMIT = 2\nSPARE = LIMIT\n__version__ = '1'\n")
    assert _unused(modules) == ["orphan.SPARE"]


def _builds_a_dict(node: ast.AST) -> bool:
    """Whether ``node`` holds a dict display, a dict comprehension or a
    call of ``dict``."""
    return any(isinstance(n, (ast.Dict, ast.DictComp))
               or (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "dict")
               for n in ast.walk(node))


def test_stage1_keeps_no_table_of_forms():
    stage1 = next(node for node in _modules()["census"].body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "simple_connected_graphs")
    assert not _builds_a_dict(stage1)
    # the scan sees each way of building one
    for code in ("seen = {}", "seen = {k: 1 for k in ks}", "seen = dict(ks)"):
        assert _builds_a_dict(ast.parse(code)), code


def test_canonical_deletion_is_decided_in_one_call():
    for helper in ("_deletion_keys", "_deletable"):
        assert _call_sites(helper) == {"census._canonical_deletion"}, helper


def _replaces_bipartition(tree: ast.AST) -> list[ast.Call]:
    """The ``replace`` calls in ``tree`` that pass ``bipartition=``."""
    return [n for n in ast.walk(tree)
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "replace"
            and any(k.arg == "bipartition" for k in n.keywords)]


def test_census_two_colours_only_in_stage1():
    sites = _call_sites("find_bipartition")
    assert {s for s in sites if s.startswith("census.")} == {
        "census.simple_connected_graphs"}
    assert _replaces_bipartition(_modules()["census"]) == []
    # the scan sees two-colourings and bipartition replaces elsewhere
    assert "adgraph.AdGraph._valid" in sites
    assert _replaces_bipartition(_modules()["adgraph"])


def _tests_bipartition(node: ast.AST) -> bool:
    """Whether ``node`` compares an attribute ``bipartition`` with
    ``None``, by ``is``, ``is not``, ``==`` or ``!=``, on either side."""
    if not isinstance(node, ast.Compare) or len(node.ops) != 1:
        return False
    sides = [node.left, node.comparators[0]]
    return (isinstance(node.ops[0], (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
            and any(getattr(s, "attr", None) == "bipartition" for s in sides)
            and any(isinstance(s, ast.Constant) and s.value is None for s in sides))


def _mentions(modules: dict[str, ast.Module], name: str) -> list[str]:
    """The modules that define ``name`` at their top level or read it."""
    return sorted(module for module, tree in modules.items()
                  if name in _names(tree)
                  or any(name in _defines(top) for top in tree.body))


def test_validation_is_decided_in_one_place():
    """Only ``adgraph._validated`` takes a bipartition as the mark of a
    validated graph; validation two-colours and searches only in the
    cached property ``AdGraph._valid``, so at most once per graph
    object; and no ``NotValidatedError`` refuses a plain graph."""
    modules = _modules()
    assert {f"{module}.{where}" for module, tree in modules.items()
            for where in _sites(tree, _tests_bipartition)} == {"adgraph._validated"}
    for name in ("find_bipartition", "planar_rotations"):
        assert {s for s in _call_sites(name) if s.startswith("adgraph.")} == {
            "adgraph.AdGraph._valid"}, name
    assert _mentions(modules, "NotValidatedError") == []
    # the scan sees each form of the test, in a function or a method, and
    # a two-colouring in a cached property; not a test of another field
    synthetic = ast.parse(
        "class G:\n    @cached_property\n    def _valid(self):\n"
        "        return find_bipartition(self)\n"
        "    def trusted(self):\n        return self.bipartition is not None\n"
        "def helper(g):\n    return g._valid if g.bipartition is None else g\n"
        "def reversed_test(g):\n    return None == g.bipartition\n"
        "def other(g):\n    return g.rotations is None\n")
    assert _sites(synthetic, _tests_bipartition) == [
        "G.trusted", "helper", "reversed_test"]
    assert _calls(synthetic, "find_bipartition") == ["G._valid"]
    # and an error class where it is defined and where it is raised
    assert _mentions({
        "errors": ast.parse("class NotValidatedError(TuraevError):\n    pass\n"),
        "user": ast.parse("def f():\n    raise errors.NotValidatedError('x')\n"),
        "other": ast.parse("def g():\n    raise NotEmbeddedError('x')\n"),
    }, "NotValidatedError") == ["errors", "user"]


_MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault",
             "pop", "popitem", "remove", "discard", "clear"}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_MEMOS = {"cache", "lru_cache", "cached_property"}


def _top_level_names(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level."""
    names: set[str] = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(top.name)
        elif isinstance(top, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in top.names}
        else:
            names |= {n.id for n in ast.walk(top)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return names


def _own(body: list[ast.AST]):
    """The nodes of one function's body, each nested function itself
    but nothing inside it."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _root(node: ast.AST) -> str | None:
    """The name at the bottom of a chain of subscripts and attributes."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _state_changes(tree: ast.Module, module: str) -> set[str]:
    """The top-level functions and methods of ``tree`` (nested functions
    count as their enclosing one) that change module state: a ``global``
    statement, a store or ``del`` on a subscript or attribute of a
    module-level name, or a mutating call on one, unless a local of the
    function or of an enclosing one shadows it."""
    shared = _top_level_names(tree)
    found: set[str] = set()

    def visit(fn: ast.AST, where: str, hidden: frozenset[str]) -> None:
        own = list(_own(fn.body if isinstance(fn.body, list) else [fn.body]))
        if any(isinstance(node, ast.Global) for node in own):
            found.add(where)
        hidden = hidden | {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        for node in own:
            if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
                hidden |= {node.id}
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                hidden |= {node.name}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                hidden |= {(a.asname or a.name).split(".")[0] for a in node.names}
        visible = shared - hidden
        for node in own:
            if (isinstance(node, (ast.Subscript, ast.Attribute))
                    and isinstance(node.ctx, (ast.Store, ast.Del))
                    and _root(node) in visible):
                found.add(where)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS and _root(node.func.value) in visible):
                found.add(where)
            if isinstance(node, _SCOPES):
                visit(node, where, hidden)

    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit(top, f"{module}.{top.name}", frozenset())
        elif isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(item, f"{module}.{top.name}.{item.name}", frozenset())
    return found


def _memoised(tree: ast.Module, module: str) -> set[tuple[str, str]]:
    """``(where, decorator)`` for each function of ``tree`` decorated
    with ``functools.cache``, ``lru_cache`` or ``cached_property``, where
    being ``module.name`` or, in a top-level class, ``module.Class.name``."""
    def name(decorator: ast.expr) -> str | None:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        return (decorator.attr if isinstance(decorator, ast.Attribute)
                else getattr(decorator, "id", None))

    owner = {id(item): f"{top.name}." for top in tree.body
             if isinstance(top, ast.ClassDef) for item in top.body}
    return {(f"{module}.{owner.get(id(node), '')}{node.name}", memo)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for memo in _MEMOS & {name(d) for d in node.decorator_list}}


def test_no_function_changes_module_state():
    """Every function in ``src`` leaves module state as it found it, so
    a census query is a plain function of its bounds.  The one
    module-level memo is ``families._forms``: it holds a constant table
    of the minimal forms, which ``classify_genus`` reads on every call.
    The per-instance memos are ``AdGraph``'s cached properties, which
    live and die with their graph."""
    changes, memos = set(), set()
    for module, tree in _modules().items():
        changes |= _state_changes(tree, module)
        memos |= _memoised(tree, module)
    assert changes == set()
    assert {where for where, memo in memos if memo != "cached_property"} == {
        "families._forms"}
    assert {where.rsplit(".", 1)[0] for where, memo in memos
            if memo == "cached_property"} == {"adgraph.AdGraph"}
    # the scan flags a cache store, a mutating call, a ``del``, a
    # ``global`` statement and a store from a nested function
    flagged = ("_CACHE = {}\ndef f(k):\n    _CACHE[k] = 1\n",
               "SEEN = []\ndef f(k):\n    SEEN.append(k)\n",
               "import os\ndef f():\n    del os.environ['X']\n",
               "n = 0\ndef f():\n    global n\n    n = 1\n",
               "T = {}\nclass C:\n    def f(self):\n"
               "        return [lambda k: T.setdefault(k, 1)]\n")
    for code in flagged:
        assert len(_state_changes(ast.parse(code), "m")) == 1, code
    # and not a local that shadows a module-level name, nor a parameter
    local = ("cache = {}\ndef f(k, seen):\n    cache = {}\n    cache[k] = 1\n"
             "    cache.setdefault(k, 2)\n    seen.append(k)\n    return cache\n")
    assert _state_changes(ast.parse(local), "m") == set()
    # it sees memo decorators, called or bare
    memo = "import functools\n@functools.lru_cache(None)\ndef f():\n    return 1\n"
    assert _memoised(ast.parse(memo), "m") == {("m.f", "lru_cache")}
    # and names a cached property, or a cache on a method, by its class
    memo = ("class C:\n    @cached_property\n    def p(self):\n        return 1\n"
            "    @cache\n    def q(self):\n        return 2\n")
    assert _memoised(ast.parse(memo), "m") == {
        ("m.C.p", "cached_property"), ("m.C.q", "cache")}


def _asserts(tree: ast.AST) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_assert_in_src():
    assert {module: lines for module, tree in _modules().items()
            if (lines := _asserts(tree))} == {}
    # the scan sees an assert inside a function
    assert _asserts(ast.parse("def f(x):\n    assert x\n")) == [2]


def _int_readers(tree: ast.Module, module: str) -> set[str]:
    """The definitions in ``tree`` that read the name ``int`` as a value:
    not in an annotation, not as a bare subscript such as those of
    ``tuple[int, int]`` and not as a bare operand of ``is`` or
    ``is not``."""
    typing: set[int] = set()
    for node in ast.walk(tree):
        hints = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            hints.append(node.returns)
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            hints.append(node.annotation)
        if isinstance(node, ast.Subscript):
            index = node.slice
            hints += [n for n in (index.elts if isinstance(index, ast.Tuple)
                                  else [index]) if isinstance(n, ast.Name)]
        if isinstance(node, ast.Compare) and all(
                isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            hints += [n for n in (node.left, *node.comparators)
                      if isinstance(n, ast.Name)]
        typing.update(id(n) for hint in hints if hint is not None
                      for n in ast.walk(hint))
    found: set[str] = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            if (isinstance(child, ast.Name) and child.id == "int"
                    and id(child) not in typing):
                found.add(inner)
            visit(child, inner)

    visit(tree, module)
    return found


def test_only_the_integer_readers_convert_text():
    readers = set()
    for module, tree in _modules().items():
        readers |= _int_readers(tree, module)
    assert readers == {
        "errors.integer", "errors.integers", "ribbon.is_orientable"}
    # the scan sees a conversion, also inside a subscript or an ``is``
    # test, a passed ``int`` and an alias, and skips hints and type tests
    code = ("def f(t: int) -> list[int]:\n"
            "    n: int = 0\n"
            "    return type(t) is int or [int(t)]\n"
            "def k(t):\n    return int(t) is None\n"
            "def g(ts):\n    return list(map(int, ts))\n"
            "def h():\n    to = int\n"
            "def j(xs, t):\n    return xs[int(t)]\n"
            "Pair = tuple[int, int]\n")
    assert _int_readers(ast.parse(code), "m") == {
        "m.f", "m.g", "m.h", "m.j", "m.k"}


def _unraised_errors(modules: dict[str, ast.Module]) -> list[str]:
    """The ``TuraevError`` subclasses defined in ``errors``, directly or
    through another one, that no ``raise`` outside ``errors`` names."""
    errors = {"TuraevError"}
    for node in modules["errors"].body:
        if isinstance(node, ast.ClassDef) and errors & {
                getattr(base, "id", None) for base in node.bases}:
            errors.add(node.name)
    raised = set()
    for module, tree in modules.items():
        if module != "errors":
            raised |= {name for node in ast.walk(tree)
                       if isinstance(node, ast.Raise) and node.exc is not None
                       for name in _names(node.exc)}
    return sorted(errors - {"TuraevError"} - raised)


def test_every_error_class_is_raised():
    modules = _modules()
    assert _unraised_errors(modules) == []
    # the scan flags a subclass, also one of a subclass, that only its own
    # module raises, and counts a raise by name or by call elsewhere
    modules = {
        "errors": ast.parse(
            "class TuraevError(Exception):\n    pass\n"
            "class UsedError(TuraevError):\n    pass\n"
            "class BareError(UsedError):\n    pass\n"
            "class DeadError(UsedError):\n    pass\n"
            "class Other(Exception):\n    pass\n"
            "def check():\n    raise DeadError('x')\n"),
        "user": ast.parse(
            "from . import errors\n"
            "def f(x):\n"
            "    if x:\n        raise errors.UsedError(x)\n"
            "    raise BareError\n"),
    }
    assert _unraised_errors(modules) == ["DeadError"]
