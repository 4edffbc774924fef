"""Source hygiene checks that need no import of the code they check.

Every name that a module of src/qcover or tests/ imports must be used in that
module: an AST scan collects the names its import statements bind and fails
on any that never appears as a name elsewhere in it.  qcover/__init__.py
re-exports what it imports, and __future__ imports are directives, so both
are exempt.

Caches in src/qcover are bounded: a cache that outlives a call must not grow
with the inputs a long-running caller passes.  An AST scan finds every
functools.cache and lru_cache(maxsize=None), and fails on any outside
UNBOUNDED_CACHES, whose keys take few values.

Every construction certifies what it returns: an AST scan of
constructions.py finds each public function with a verify parameter, and only
turan_point_design, whose census a caller may run with its own strategy, has
one.

Every public top-level function of src/qcover is used: an AST scan fails on
any that no module of src/qcover names and qcover/__init__.py does not
export, outside UNREFERENCED, which gives the reason each of those stays.

The CLI has one bad-input path: a command raises ValueError and main prints
`invalid input: ...` and returns EXIT_BAD_INPUT.  An AST scan of cli.py fails
on any "invalid input" string outside a docstring and any
`return EXIT_BAD_INPUT` outside main.  Another checks that the flags
cli.CONSTRUCTIONS names are exactly the keys of cli.FLAGS, the table that
gives each construct flag its type, default, least value and help.

The enumeration budget is one policy, in subspaces.py: subspace_count caps a
census of subspaces and check_vectors a list of vectors.  An AST scan fails
on MAX_VECTOR_ENUM named outside subspaces.py, and on a BudgetError built
outside it except in OWN_BUDGETS, which gives the reason each of those
stays.

Every subspace query of subspaces.py takes its packed vectors from one span
fork, span reduces q = 2 rows by XOR, and designs.py forks only to load a
design file: an AST scan fails on any `q == 2` or `q != 2` test in either
module (q a name or an attribute, either side) outside Q_FORKS, which gives
the reason each of those stays.

A Subspace of src/qcover is built at a few known sites, so blocks keep one
builder from packed RREF rows: an AST scan fails on any call of Subspace, and
any Subspace passed to a call (as map(Subspace, ...)) other than isinstance,
outside SUBSPACE_SITES, which gives the reason each of those stays.

SubspaceDesign.from_rows is the one design builder of src/qcover, and a
design builds its Subspaces only when its blocks view is first read: an AST
scan fails on any from_blocks call there but SetSystem.from_blocks, the
set-system builder.  from_blocks is the checked adapter from Subspaces, for
callers outside the package.

A packed vector's int order is the lexicographic order of F_q^n, coordinate
0 first, so no subspace or design code reverses one: an AST scan fails on
any slice with step -1 and any _bit_reverser name in subspaces.py or
designs.py.

Coordinate tuples pack at one edge of subspaces.py: an AST scan fails on
any vec_pack it names, as a name or an attribute, outside _digit_table,
whose pack every other packing there goes through.  Enumeration and the
complement keys work on packed ints and pack nothing.

src/qcover reads a subspace's packed rows only: Subspace.rows unpacks them
on every read, for tests and repr.  An AST scan fails on any rows attribute,
and any "rows" string passed to getattr or attrgetter, in src/qcover
outside the class Subspace.

A list of blocks in src/qcover is a design, not a container of Subspaces:
an AST scan fails on any function parameter annotated as a Sequence, List,
Iterable or Tuple of Subspace (a name or an attribute, at any depth of the
annotation, a string annotation parsed) outside SUBSPACE_LISTS, which gives
the reason each of those stays.

A self-check in src/qcover must hold under python -O, which strips assert
statements: an AST scan fails on any assert there, so each check raises
explicitly.

A design holds its blocks' packed rows, and its blocks view builds a
Subspace per block on first read, so src/qcover counts a design by len: an
AST scan fails on any len(<expr>.blocks) there but len(self.blocks), the
class's own read, outside SET_SYSTEM_LENS, the sites that count a SetSystem,
whose blocks is a stored tuple.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REEXPORTS = ROOT / "src" / "qcover" / "__init__.py"
CLI = ROOT / "src" / "qcover" / "cli.py"
MODULES = sorted(path for folder in (ROOT / "src" / "qcover", ROOT / "tests")
                 for path in folder.glob("*.py") if path != REEXPORTS)
SOURCES = sorted((ROOT / "src" / "qcover").glob("*.py"))
# (module, function): Gaussian coefficients, and the field tables, one per
# field size.
UNBOUNDED_CACHES = {("bounds.py", "gaussian"), ("fields.py", "get_gf")}
# (module, function) -> why it stays although src/qcover never calls it.
UNREFERENCED = {}
# (module, top-level definition) -> why it builds a BudgetError itself
# rather than call subspace_count or check_vectors.
OWN_BUDGETS = {
    ("constructions.py", "greedy_covering"):
        "caps [n k]_q * [k r]_q block-target incidences, not one census",
    ("designs.py", "verify_steiner_system"):
        "caps a census of C(v,t) point subsets, not of subspaces",
    ("constructions.py", "expand_to_steiner_system"):
        "caps n <= 16, as the system lists the 2^n points of every coset",
    ("cli.py", "cmd_expand"): "re-raises expand's BudgetError with the file name",
}

# (module, top-level definition) -> why it tests q == 2 itself.
Q_FORKS = {
    ("subspaces.py", "_span_rows"):
        "a q = 2 row's pivot is its top set bit, and rows clear by XOR with "
        "no digit read",
    ("subspaces.py", "span_vector_lists"):
        "the one span fork: q = 2 vectors are XORs of packed rows",
    ("subspaces.py", "_pivot_reader"):
        "a q = 2 row's digit count is its bit_length, which other q count "
        "by bisect over the places",
    ("designs.py", "design_from_text"):
        "canonical q = 2 files are taken as written",
}

# (module, top-level definition) -> the SetSystem whose stored blocks tuple
# it takes len of.
SET_SYSTEM_LENS = {
    ("cli.py", "cmd_expand"): "the expanded Steiner system it saves",
    ("constructions.py", "expand_to_steiner_system"):
        "the system it checks against the Steiner count",
    ("designs.py", "setsystem_to_text"): "the system whose b= it writes",
}

# (module, top-level definition) -> why it builds a Subspace itself.
SUBSPACE_SITES = {
    ("subspaces.py", "span"):
        "the block of the rows and pivots _span_rows, the one row "
        "reduction, finds: _rref_blocks would read the pivots again",
    ("subspaces.py", "orthogonal_complement"):
        "the block of the rows and pivots _perp_rows writes",
    ("subspaces.py", "_rref_blocks"):
        "the builder from packed RREF rows, any q: enumerate_grassmannian, "
        "subspaces_of and the residual of _field_tower that partial_spread "
        "returns",
    ("designs.py", "SubspaceDesign"):
        "the blocks view builds each block once, on first read, from the "
        "packed rows and pivots the design holds: a design itself holds no "
        "Subspace",
    ("designs.py", "_misses"):
        "builds a witness only, with the pivots its grassmannian_choices "
        "entry gives: a per-witness _rref_blocks call costs more",
}

# (module, qualified function, parameter) -> why it takes Subspaces.
SUBSPACE_LISTS = {
    ("designs.py", "SubspaceDesign.from_blocks", "blocks"):
        "the checked adapter from Subspaces, for callers outside the package",
}


def unused_imports(source: str):
    """(line, name) of every imported name that the module never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # "import a.b" binds a
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_covers_both_trees():
    names = {path.name for path in MODULES}
    assert {"designs.py", "subspaces.py", "test_hygiene.py"} <= names
    assert "__init__.py" not in names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_scan_finds_each_binding_form():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nimport json as js\n"
              "from math import comb, prod as product\n"
              "def f():\n    return comb(2, 1) + os.sep\n")
    assert unused_imports(source) == [(4, "js"), (5, "product")]


def unbounded_caches(source: str):
    """(line, decorated function or None) of every functools.cache and every
    lru_cache with maxsize None, under any name an import binds them to."""
    tree = ast.parse(source)
    modules, names = {"functools"}, {}  # local name -> functools attribute
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update((alias.asname or alias.name, alias.name)
                         for alias in node.names)

    def resolve(node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            return node.attr
        if isinstance(node, ast.Name):
            return names.get(node.id)
        return None

    def unbounded(arg):
        return isinstance(arg, ast.Constant) and arg.value is None

    owner = {id(dec): node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for dec in node.decorator_list}
    found = []
    for node in ast.walk(tree):
        if resolve(node) == "cache":
            found.append((node.lineno, owner.get(id(node))))
        elif isinstance(node, ast.Call) and resolve(node.func) == "lru_cache" \
                and (node.args and unbounded(node.args[0])
                     or any(kw.arg == "maxsize" and unbounded(kw.value)
                            for kw in node.keywords)):
            found.append((node.lineno, owner.get(id(node))))
    return sorted(found, key=lambda item: item[0])


def test_only_allowlisted_caches_are_unbounded():
    found = {(path.name, name) for path in SOURCES
             for _, name in unbounded_caches(path.read_text(encoding="utf-8"))}
    assert found <= UNBOUNDED_CACHES


def test_unbounded_cache_scan_finds_each_form():
    source = ("import functools\nimport functools as ft\n"
              "from functools import cache, lru_cache as lc\n"
              "@functools.lru_cache(maxsize=None)\ndef a(x): return x\n"
              "@ft.lru_cache(None)\ndef b(x): return x\n"
              "@functools.cache\ndef c(x): return x\n"
              "@cache\ndef d(x): return x\n"
              "@lc(maxsize=None, typed=True)\ndef e(x): return x\n"
              "f = functools.cache(len)\n"
              "@functools.lru_cache(maxsize=16)\ndef g(x): return x\n"
              "@lc\ndef h(x): return x\n"
              "@functools.lru_cache()\ndef i(x): return x\n")
    assert unbounded_caches(source) == [(4, "a"), (6, "b"), (8, "c"), (10, "d"),
                                        (12, "e"), (14, None)]


def test_only_turan_point_design_can_skip_its_census():
    tree = ast.parse((ROOT / "src" / "qcover" / "constructions.py")
                     .read_text(encoding="utf-8"))
    optional = [node.name for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")
                and "verify" in {a.arg for a in node.args.args + node.args.kwonlyargs}]
    assert optional == ["turan_point_design"]


def unreferenced_functions(sources):
    """(module, name) of every public top-level function in sources, a dict
    from module file name to source, that no module names (as a name or an
    attribute) and __init__.py does not import."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    named |= {alias.name for node in ast.walk(trees["__init__.py"])
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    return {(module, node.name) for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_") and node.name not in named}


def test_every_public_function_is_used_or_allowlisted():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert "__init__.py" in sources
    assert unreferenced_functions(sources) == set(UNREFERENCED)


def test_unreferenced_function_scan_finds_each_form():
    sources = {
        "__init__.py": "from .a import exported as alias\n",
        "a.py": ("import b\n"
                 "def exported(): pass\n"
                 "def called(): pass\n"
                 "def by_attribute(): pass\n"
                 "def unused(): pass\n"
                 "async def unused_async(): pass\n"
                 "def _private(): pass\n"
                 "class C:\n    def method(self): pass\n"
                 "def outer():\n    def inner(): pass\n"),
        "b.py": ("from a import called\n"
                 "def main():\n    called()\n    return a.by_attribute\n"),
    }
    assert unreferenced_functions(sources) == {
        ("a.py", "unused"), ("a.py", "unused_async"), ("a.py", "outer"),
        ("b.py", "main")}


def bad_input_paths(source: str):
    """(line, form) of every "invalid input" string that is not a docstring
    and every `return EXIT_BAD_INPUT` outside the top-level function main."""
    tree = ast.parse(source)
    skip = {id(node) for top in tree.body
            if isinstance(top, ast.FunctionDef) and top.name == "main"
            for node in ast.walk(top)}
    skip |= {id(node.body[0].value) for node in ast.walk(tree)
             if isinstance(node, (ast.Module, ast.FunctionDef,
                                  ast.AsyncFunctionDef, ast.ClassDef))
             and ast.get_docstring(node) is not None}
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "invalid input" in node.value:
            found.append((node.lineno, "invalid input"))
        elif isinstance(node, ast.Return) and isinstance(node.value, ast.Name) \
                and node.value.id == "EXIT_BAD_INPUT":
            found.append((node.lineno, "return EXIT_BAD_INPUT"))
    return sorted(found)


def test_cli_prints_invalid_input_only_in_main():
    assert bad_input_paths(CLI.read_text(encoding="utf-8")) == []


def test_bad_input_scan_finds_each_form():
    source = ('"""Exit 2 on invalid input."""\n'
              "import sys\n"
              "def cmd(args):\n"
              '    """Refuse invalid input."""\n'
              '    print(f"invalid input: {args}", file=sys.stderr)\n'
              "    return EXIT_BAD_INPUT\n"
              "def other():\n"
              '    message = "no invalid input here"\n'
              "    return EXIT_OK\n"
              "def main():\n"
              '    print("invalid input: x")\n'
              "    return EXIT_BAD_INPUT\n")
    assert bad_input_paths(source) == [(5, "invalid input"),
                                       (6, "return EXIT_BAD_INPUT"),
                                       (8, "invalid input")]


def construct_flags(source: str):
    """(the flags that the CONSTRUCTIONS table of cli.py names, the keys of
    its FLAGS table), each a set."""
    tables = {node.targets[0].id: node.value for node in ast.parse(source).body
              if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
              and isinstance(node.targets[0], ast.Name)}
    named = {name for entry in tables["CONSTRUCTIONS"].values
             for name in ast.literal_eval(entry.elts[0])}
    return named, set(map(ast.literal_eval, tables["FLAGS"].keys))


def test_every_construct_flag_has_one_table_entry():
    named, table = construct_flags(CLI.read_text(encoding="utf-8"))
    assert {"q", "n", "input"} <= named
    assert named == table


def test_construct_flag_scan_reads_both_tables():
    source = ("CONSTRUCTIONS = {\n"
              '    "a": (("q", "n"), lambda a: a),\n'
              '    "b": ((), build),\n'
              '    "c": (("s1",), build),\n'
              "}\n"
              'FLAGS = {"q": (int, 2, 1, "q"), "n": (int, None, 1, "n"),\n'
              '         "rho": (int, None, 1, "rho")}\n')
    assert construct_flags(source) == ({"q", "n", "s1"}, {"q", "n", "rho"})


def budget_sites(source: str):
    """(line, enclosing top-level definition or None, form) of every
    BudgetError call, as a name or an attribute, and every MAX_VECTOR_ENUM
    that the source names or imports."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and "BudgetError" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append((node.lineno, owner, "BudgetError"))
            elif "MAX_VECTOR_ENUM" in (getattr(node, "id", None),
                                       getattr(node, "attr", None),
                                       getattr(node, "name", None)):
                found.append((node.lineno, owner, "MAX_VECTOR_ENUM"))
    return sorted(found)


def test_budget_policy_lives_in_subspaces():
    found = [(path.name, owner, form) for path in SOURCES
             if path.name != "subspaces.py"
             for _, owner, form in budget_sites(path.read_text(encoding="utf-8"))]
    assert [site for site in found if site[2] == "MAX_VECTOR_ENUM"] == []
    assert sorted(found) == sorted((module, owner, "BudgetError")
                                   for module, owner in OWN_BUDGETS)
    own = budget_sites((ROOT / "src" / "qcover" / "subspaces.py")
                       .read_text(encoding="utf-8"))
    assert {"subspace_count", "check_vectors"} <= {owner for _, owner, _ in own}


def test_budget_scan_finds_each_form():
    source = ("from .subspaces import MAX_VECTOR_ENUM\n"
              "from . import subspaces\n"
              "def a(n):\n"
              "    if n > subspaces.MAX_VECTOR_ENUM:\n"
              "        raise subspaces.BudgetError('n')\n"
              "class B:\n"
              "    def m(self):\n"
              "        raise BudgetError(f'{self}')\n"
              "def c():\n"
              "    except_ = BudgetError\n"
              "    return check_vectors(2, 3)\n")
    assert budget_sites(source) == [(1, None, "MAX_VECTOR_ENUM"),
                                    (4, "a", "MAX_VECTOR_ENUM"),
                                    (5, "a", "BudgetError"),
                                    (8, "B", "BudgetError")]


def q_forks(source: str):
    """(line, enclosing top-level definition or None) of every comparison
    `q == 2` or `q != 2`, q a name or an attribute, on either side."""
    def is_q(node):
        return "q" in (getattr(node, "id", None), getattr(node, "attr", None))

    def is_two(node):
        return isinstance(node, ast.Constant) and node.value == 2

    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, a, b in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Eq, ast.NotEq)) and (
                        is_q(a) and is_two(b) or is_two(a) and is_q(b)):
                    found.append((node.lineno, owner))
    return sorted(found)


def test_span_q_forks_only_in_allowlist():
    found = set()
    for name in ("subspaces.py", "designs.py"):
        source = (ROOT / "src" / "qcover" / name).read_text(encoding="utf-8")
        found |= {(name, owner) for _, owner in q_forks(source)}
    assert found == set(Q_FORKS)


def test_q_fork_scan_finds_each_form():
    source = ("def a(q):\n    return 1 if q == 2 else 0\n"
              "def b(s):\n    if s.q != 2:\n        return 2 == s.q\n"
              "class C:\n    def m(self, q):\n        return 0 < q != 2\n"
              "def d(q, n):\n    return q == 3 or n == 2 or q > 2 or q <= 2\n"
              "X = design.q == 2\n"
              "def e(q, k):\n    if q == 2 and 1 <= k <= 4:\n        return k\n")
    assert q_forks(source) == [(2, "a"), (4, "b"), (5, "b"), (8, "C"),
                               (11, None), (13, "e")]


def subspace_sites(source: str):
    """(line, enclosing top-level definition or None) of every call of
    Subspace and every call other than isinstance or issubclass that takes
    Subspace as an argument, Subspace a name or an attribute."""
    def is_subspace(node):
        return "Subspace" in (getattr(node, "id", None), getattr(node, "attr", None))

    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            if is_subspace(node.func) or (
                    getattr(node.func, "id", None) not in ("isinstance", "issubclass")
                    and any(map(is_subspace, node.args))):
                found.append((node.lineno, owner))
    return sorted(found)


def test_subspaces_are_built_only_at_allowlisted_sites():
    found = {(path.name, owner) for path in SOURCES
             for _, owner in subspace_sites(path.read_text(encoding="utf-8"))}
    assert found == set(SUBSPACE_SITES)


def from_blocks_calls(source: str):
    """(line, enclosing top-level definition or None) of every call of
    from_blocks, as a name or an attribute, but SetSystem.from_blocks."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if getattr(func, "id", None) == "from_blocks" or (
                    getattr(func, "attr", None) == "from_blocks"
                    and getattr(func.value, "id", None) != "SetSystem"):
                found.append((node.lineno, owner))
    return sorted(found)


def test_src_builds_designs_only_from_rows():
    found = [(path.name, line, owner) for path in SOURCES
             for line, owner in from_blocks_calls(path.read_text(encoding="utf-8"))]
    assert found == []


def test_from_blocks_scan_finds_each_form():
    source = ("from .designs import SubspaceDesign, SetSystem\n"
              "from . import designs\n"
              "def a(blocks):\n    return SubspaceDesign.from_blocks(blocks)\n"
              "def b(v, blocks):\n    return SetSystem.from_blocks(v, blocks)\n"
              "class C:\n    def m(self):\n"
              "        return designs.SubspaceDesign.from_blocks(self.blocks)\n"
              "X = from_blocks([])\n"
              "def d(rows):\n    return SubspaceDesign.from_rows(2, 3, 1, rows)\n"
              "def e():\n    build = SubspaceDesign.from_blocks\n    return build\n")
    assert from_blocks_calls(source) == [(4, "a"), (9, "C"), (10, None)]


def test_subspace_site_scan_finds_each_form():
    source = ("from .subspaces import Subspace\n"
              "from . import subspaces\n"
              "def a(n):\n    return Subspace(2, n, (), ())\n"
              "def b(rows):\n    return list(map(Subspace, rows))\n"
              "class C:\n    def m(self):\n        return subspaces.Subspace(*self)\n"
              "def d(x):\n    return isinstance(x, Subspace) or x is Subspace\n"
              "def e(x):\n    return x.__reduce__() == (Subspace, ()), Subspace.q\n"
              "X = [Subspace(2, 0, (), ())]\n"
              "def f(rows):\n    return functools.partial(subspaces.Subspace, 2)\n")
    assert subspace_sites(source) == [(4, "a"), (6, "b"), (9, "C"), (14, None),
                                      (16, "f")]


def reversals(source: str):
    """(line, form) of every slice with step -1, as in v[::-1], and every
    name, attribute, definition or import of _bit_reverser."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Slice) and node.step is not None:
            try:
                if ast.literal_eval(node.step) == -1:
                    found.append((node.lineno, "[::-1]"))
            except ValueError:  # a step that is not a literal
                pass
        names = [getattr(node, field, None) for field in ("id", "attr", "name")]
        if isinstance(node, ast.alias):
            names.append(node.asname)
        if "_bit_reverser" in names:
            found.append((node.lineno, "_bit_reverser"))
    return sorted(found)


def test_subspaces_and_designs_reverse_no_packed_vector():
    for name in ("subspaces.py", "designs.py"):
        source = (ROOT / "src" / "qcover" / name).read_text(encoding="utf-8")
        assert reversals(source) == [], name


def test_reversal_scan_finds_each_form():
    source = ("from .subspaces import _bit_reverser\n"
              "from . import subspaces as s\n"
              "def _bit_reverser(n):\n    return n\n"
              "def a(word):\n    return int(word[::-1], 2)\n"
              "def b(row, n):\n    return row[n - 1::-1], row[::1], row[::2]\n"
              "def c(rows):\n    return s._bit_reverser(3), rows[::-(1)]\n"
              "def d(rows, k):\n    return rows[::k], reversed(rows)\n")
    assert reversals(source) == [(1, "_bit_reverser"), (3, "_bit_reverser"),
                                 (6, "[::-1]"), (8, "[::-1]"),
                                 (10, "[::-1]"), (10, "_bit_reverser")]


def packing_sites(source: str):
    """(line, enclosing top-level definition or None) of every vec_pack the
    source names, as a name or an attribute; an import binds it but does not
    name it."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if "vec_pack" in (getattr(node, "id", None), getattr(node, "attr", None)):
                found.append((node.lineno, owner))
    return sorted(found)


def test_subspaces_pack_coordinates_only_in_the_digit_table():
    source = (ROOT / "src" / "qcover" / "subspaces.py").read_text(encoding="utf-8")
    assert {owner for _, owner in packing_sites(source)} == {"_digit_table"}


def test_packing_scan_finds_each_form():
    source = ("from .fields import vec_pack\n"
              "from . import fields\n"
              "def _digit_table(q):\n    return functools.partial(vec_pack, q)\n"
              "def a(q, rows):\n    return [vec_pack(q, row) for row in rows]\n"
              "class B:\n    def m(self):\n        return fields.vec_pack(2, self)\n"
              "PACK = vec_pack\n"
              "def c(q):\n    return vec_unpack, 'vec_pack'\n")
    assert packing_sites(source) == [(4, "_digit_table"), (6, "a"), (9, "B"),
                                     (10, None)]


def rows_reads(source: str):
    """(line, enclosing top-level definition or None) of every attribute
    named rows and every "rows" string that a call of getattr or attrgetter
    takes, a name or an attribute, outside the class Subspace."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        if isinstance(top, ast.ClassDef) and owner == "Subspace":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "rows":
                found.append((node.lineno, owner))
            elif isinstance(node, ast.Call) and {"getattr", "attrgetter"} & {
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)} \
                    and any(isinstance(arg, ast.Constant) and arg.value == "rows"
                            for arg in node.args):
                found.append((node.lineno, owner))
    return sorted(found)


def test_src_reads_no_rows_outside_subspace():
    found = [(path.name, line, owner) for path in SOURCES
             for line, owner in rows_reads(path.read_text(encoding="utf-8"))]
    assert found == []


def test_rows_scan_finds_each_form():
    source = ("from operator import attrgetter\n"
              "import operator\n"
              "class Subspace:\n    @property\n    def rows(self):\n"
              "        return self.packed\n"
              "    def __repr__(self):\n        return str(self.rows)\n"
              "def a(s):\n    return s.rows[0]\n"
              "def b(blocks):\n    return [x for b in blocks for x in b.rows]\n"
              "class C:\n    def m(self, s):\n        return getattr(s, 'rows')\n"
              "ROWS = attrgetter('rows')\n"
              "def d(s, rows):\n    return rows, 'rows', s.packed, getattr(s, 'n')\n"
              "def e(s):\n    return operator.attrgetter('q', 'rows')(s)\n")
    assert rows_reads(source) == [(10, "a"), (12, "b"), (15, "C"), (16, None),
                                  (20, "e")]


def len_of_blocks(source: str):
    """(line, enclosing top-level definition or None) of every call of len
    whose one argument is an attribute named blocks of anything but self."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len" \
                    and len(node.args) == 1 and isinstance(node.args[0], ast.Attribute) \
                    and node.args[0].attr == "blocks" \
                    and getattr(node.args[0].value, "id", None) != "self":
                found.append((node.lineno, owner))
    return sorted(found)


def test_src_takes_no_len_of_blocks():
    found = {(path.name, owner) for path in SOURCES
             for _, owner in len_of_blocks(path.read_text(encoding="utf-8"))}
    assert found == set(SET_SYSTEM_LENS)


def test_len_of_blocks_scan_finds_each_form():
    source = ("def a(design):\n    return len(design.blocks)\n"
              "class B:\n    def m(self):\n        return len(self.x.blocks) + 1\n"
              "N = len(SYSTEM.blocks)\n"
              "def c(design, blocks):\n"
              "    return len(design), len(blocks), design.blocks, len(design.packed)\n"
              "def d(design):\n    return f'{len(design.blocks[1:])}', sum(design.blocks)\n"
              "class E:\n    def __len__(self):\n        return len(self.blocks)\n")
    assert len_of_blocks(source) == [(2, "a"), (5, "B"), (6, None)]


def subspace_list_params(source: str):
    """(line, qualified function, parameter) of every function parameter
    whose annotation holds a Sequence, List, Iterable or Tuple subscripted
    by Subspace, each a name or an attribute; a string annotation is
    parsed first."""
    containers = {"Sequence", "List", "Iterable", "Tuple"}

    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    def holds_subspaces(annotation):
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            annotation = ast.parse(annotation.value, mode="eval").body
        for node in ast.walk(annotation) if annotation else ():
            if isinstance(node, ast.Subscript) and name(node.value) in containers:
                items = node.slice.elts if isinstance(node.slice, ast.Tuple) \
                    else [node.slice]
                if any(name(item) == "Subspace" for item in items):
                    return True
        return False

    found = []

    def visit(tree, prefix):
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in (args.posonlyargs + args.args + args.kwonlyargs
                            + [args.vararg, args.kwarg]):
                    if arg is not None and holds_subspaces(arg.annotation):
                        found.append((arg.lineno, prefix + node.name, arg.arg))
            visit(node, prefix + node.name + "." if isinstance(
                node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                else prefix)
    visit(ast.parse(source), "")
    return sorted(found)


def test_src_takes_no_list_of_subspaces():
    found = {(path.name, owner, arg) for path in SOURCES for _, owner, arg
             in subspace_list_params(path.read_text(encoding="utf-8"))}
    assert found == set(SUBSPACE_LISTS)


def test_subspace_list_scan_finds_each_form():
    source = ("import typing\n"
              "from . import subspaces\n"
              "def a(bases: Sequence[Subspace], r: int) -> List[Subspace]:\n"
              "    return bases\n"
              "class B:\n"
              "    def m(self, blocks: typing.List[subspaces.Subspace] = ()):\n"
              "        def inner(*xs: Tuple[Subspace, ...]):\n"
              "            return xs\n"
              "def c(s: Subspace, d: Dict[Subspace, int], v: Sequence[int]):\n"
              "    return s, d, v\n"
              "def e(*, maybe: Optional[Iterable[Subspace]] = None,\n"
              "      text: 'Sequence[Subspace]' = ()):\n"
              "    return maybe, text\n"
              "def f(design: SubspaceDesign, pair: Tuple[int, Subspace]):\n"
              "    return design, pair\n")
    assert subspace_list_params(source) == [
        (3, "a", "bases"), (6, "B.m", "blocks"), (7, "B.m.inner", "xs"),
        (11, "e", "maybe"), (12, "e", "text"), (14, "f", "pair")]


def asserts(source: str):
    """Line of every assert statement in the source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_src_has_no_assert():
    for path in SOURCES:
        assert asserts(path.read_text(encoding="utf-8")) == [], path.name


def test_assert_scan_finds_each_form():
    source = ("assert x\n"
              "def f(y):\n    assert y, 'message'\n"
              "    raise AssertionError('kept under -O')\n"
              "class C:\n    def g(self):\n        if self:\n"
              "            assert (self, 1)\n"
              "lambda: AssertionError\n")
    assert asserts(source) == [1, 3, 8]
