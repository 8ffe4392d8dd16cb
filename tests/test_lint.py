"""Static checks of the package source that no installed linter makes."""
import ast
import dataclasses
from collections import Counter
from pathlib import Path

import pytest

from porous import AuditSettings, BuildConfig
from porous.errors import setting
from porous.sampling import SamplingBudget

SRC = Path(__file__).resolve().parents[1] / "src" / "porous"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, quoted annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        ann = getattr(node, "annotation", None) or getattr(node, "returns",
                                                           None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            names |= _used(ast.parse(ann.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    used = _used(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported(tree).items()
                    if name not in used)
    assert unused == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\n"
                     "x: 'path' = sep\n")
    assert set(_imported(tree)) - _used(tree) == {"math"}


# numpy's stream makers: every stream comes from porous.sampling
STREAM_MAKERS = ("SeedSequence", "PCG64", "Generator", "default_rng")


def _called(call: ast.Call):
    """The name a call calls, by name or attribute."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) \
        else getattr(func, "id", None)


def _stream_calls(tree: ast.Module) -> list[str]:
    """Each call of a numpy stream maker, by name or attribute, with its
    line."""
    return sorted(f"{_called(node)} (line {node.lineno})"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and _called(node) in STREAM_MAKERS)


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "sampling.py"))
def test_only_sampling_makes_random_streams(path):
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    assert _stream_calls(tree) == []


def test_the_check_sees_a_stream_made_outside_sampling():
    tree = ast.parse("import numpy as np\n"
                     "from numpy.random import default_rng\n"
                     "np.random.Generator(np.random.PCG64(1))\n"
                     "rng = default_rng(0)\n"
                     "np.random.SeedSequence(2).spawn(1)\n"
                     "rng.random(3)\n")
    assert _stream_calls(tree) == ["Generator (line 3)", "PCG64 (line 3)",
                                   "SeedSequence (line 5)",
                                   "default_rng (line 4)"]


# library names that no src/porous module references, each with the reason
# it stays
KEPT = {
    "boundary_distance": "the bench tracer wraps it (ROADMAP D16)",
    "residue_energy": "the bench tracer wraps it (ROADMAP D16)",
    "porosity_witness": "the bench tracer wraps it (ROADMAP D16)",
    "pullback_porosity_witness": "the porosity pullback (ROADMAP D10)",
    "hole_center": "the porosity pullback (ROADMAP D10)",
    "sn_membership": "the meets-P verdict (ROADMAP D6)",
    "boundary_cross_term": "flatten-identity's independent side "
                           "(ROADMAP D14, D18)",
    "density": "the mollifier's kernel, tested against its mass",
    "generate_state": "numpy's ISeedSequence protocol calls it",
}


def _references(node: ast.AST) -> list[str]:
    """The names that ``Name`` and ``Attribute`` nodes read under node."""
    return [n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _orphans(trees: dict[str, ast.Module]) -> set[str]:
    """The functions, methods and classes defined outside ``__init__.py``,
    dunders aside, that no module references outside their own
    definition."""
    total = Counter()
    for tree in trees.values():
        total.update(_references(tree))
    out = set()
    for path, tree in trees.items():
        if path == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not (node.name.startswith("__")
                             and node.name.endswith("__")) \
                    and total[node.name] <= _references(node).count(
                        node.name):
                out.add(node.name)
    return out


def test_every_library_name_has_a_caller_or_a_reason():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in SRC.glob("*.py")}
    orphans = _orphans(trees)
    assert sorted(orphans - set(KEPT)) == []     # a name with no caller
    assert sorted(set(KEPT) - orphans) == []     # a reason gone stale


def test_the_check_sees_an_orphan():
    trees = {"a.py": ast.parse(
                 "class Used:\n"
                 "    def method(self):\n"
                 "        return self.method()\n"
                 "def orphan():\n"
                 "    return orphan()\n"
                 "def __dunder__():\n"
                 "    pass\n"),
             "b.py": ast.parse("from a import Used\nUsed().method\n"),
             "__init__.py": ast.parse("def exported():\n    pass\n")}
    assert _orphans(trees) == {"orphan"}


# dataclass fields that nothing reads as an attribute, each with the reason
# it stays
KEPT_FIELDS: dict[str, str] = {}

READERS = [SRC.parents[1] / part for part in ("src/porous", "tests", "demos",
                                              "bench")]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if "dataclass" in _references(target):
            return True
    return False


def _unread_fields(field_trees: list[ast.Module],
                   reader_trees: list[ast.Module]) -> set[str]:
    """``Class.field`` for each annotated field of a ``@dataclass`` in
    field_trees whose name no reader loads as an attribute."""
    read = {n.attr for tree in reader_trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    out = set()
    for tree in field_trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                out |= {f"{node.name}.{stmt.target.id}"
                        for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and stmt.target.id not in read}
    return out


def test_every_dataclass_field_is_read():
    fields = [ast.parse(p.read_text(encoding="utf-8"))
              for p in SRC.glob("*.py")]
    readers = [ast.parse(p.read_text(encoding="utf-8"))
               for root in READERS for p in sorted(root.rglob("*.py"))]
    unread = _unread_fields(fields, readers)
    assert sorted(unread - set(KEPT_FIELDS)) == []   # a field nobody reads
    assert sorted(set(KEPT_FIELDS) - unread) == []   # a reason gone stale


def test_the_check_sees_an_unread_field():
    source = ("from dataclasses import dataclass\n"
              "import dataclasses\n"
              "@dataclass(frozen=True)\n"
              "class Check:\n"
              "    ratio: float\n"
              "    unread: float\n"
              "    LIMIT = 3\n"
              "@dataclasses.dataclass\n"
              "class Other:\n"
              "    stored: int\n"
              "class Plain:\n"
              "    plain: int\n")
    reader = ast.parse("c.ratio\no.unread = 1\nprint(o.LIMIT)\n")
    assert _unread_fields([ast.parse(source)], [reader]) \
        == {"Check.unread", "Other.stored"}


# np.unique calls by enclosing function, each with the reason its input is
# not already sorted: sorted input takes geometry.run_starts
KEPT_UNIQUE = {
    "deserialize_family": "return_inverse over the stage numbers, in file "
                          "order",
    "family_invariant_audit": "the levels of a stage's holes, in id order",
}


def _owners(tree: ast.Module, match) -> set[str]:
    """The innermost function around each node that ``match`` accepts,
    ``<module>`` for one outside every function."""
    out = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if match(child):
                out.add(owner)
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)
    visit(tree, "<module>")
    return out


def _unique_callers(tree: ast.Module) -> set[str]:
    """The innermost function around each ``unique`` call."""
    return _owners(tree, lambda node: isinstance(node, ast.Call)
                   and _called(node) == "unique")


def test_every_unique_call_has_a_reason():
    callers = set()
    for p in SRC.glob("*.py"):
        callers |= _unique_callers(ast.parse(p.read_text(encoding="utf-8")))
    assert sorted(callers - set(KEPT_UNIQUE)) == []   # a call with no reason
    assert sorted(set(KEPT_UNIQUE) - callers) == []   # a reason gone stale


def test_the_check_sees_a_unique_call():
    tree = ast.parse("import numpy as np\n"
                     "from numpy import unique\n"
                     "top = np.unique([2, 1])\n"
                     "def outer(x):\n"
                     "    def inner(y):\n"
                     "        return unique(y, return_index=True)\n"
                     "    return inner(x)\n"
                     "def other(x):\n"
                     "    return np.sort(x), x.unique_ids\n")
    assert _unique_callers(tree) == {"<module>", "inner"}


# functions outside geometry.py that read the ball index's internals or
# call sq_dists, each with the reason it does not ask the index
KEPT_INDEX_READERS = {
    "_greedy_select": "its dense within-block pass: the greedy takes a "
                      "median 63.9 ms of CPU over the 15 bench build pools "
                      "with it, 74.0 ms with one BallIndex.pairs() per "
                      "block (2 cores, numpy 2.4.6)",
}


def _is_index_internal(node: ast.AST) -> bool:
    """A read of ``cols``, ``sq_radii`` or a private attribute, or a
    ``sq_dists`` call."""
    if isinstance(node, ast.Attribute):
        return node.attr in ("cols", "sq_radii") or (
            node.attr.startswith("_") and not node.attr.endswith("__"))
    return isinstance(node, ast.Call) and _called(node) == "sq_dists"


def test_only_geometry_reads_the_index_internals():
    readers = set()
    for p in SRC.glob("*.py"):
        if p.name != "geometry.py":
            readers |= _owners(ast.parse(p.read_text(encoding="utf-8")),
                               _is_index_internal)
    assert sorted(readers - set(KEPT_INDEX_READERS)) == []  # no reason
    assert sorted(set(KEPT_INDEX_READERS) - readers) == []  # gone stale


def test_the_check_sees_index_internals_read():
    tree = ast.parse("from porous.geometry import sq_dists\n"
                     "def near(index):\n"
                     "    return index.cols, index.sq_radii\n"
                     "def peek(index):\n"
                     "    def inner():\n"
                     "        return index._ball\n"
                     "    return inner()\n"
                     "d = sq_dists(a, i, b, j)\n"
                     "def fine(index, cols):\n"
                     "    object.__setattr__(index, 'x', cols)\n"
                     "    return index.radii, index.contains_any(cols)\n")
    assert _owners(tree, _is_index_internal) == {"near", "inner", "<module>"}


def _bool_tests(tree: ast.Module) -> list[int]:
    """The line of each ``isinstance`` call whose class, or one of whose
    classes, is ``bool``: the telltale of a hand-written number check."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called(node) == "isinstance" \
                and len(node.args) == 2:
            classes = node.args[1]
            names = classes.elts if isinstance(classes, ast.Tuple) \
                else [classes]
            if any(getattr(c, "id", None) == "bool" for c in names):
                out.append(node.lineno)
    return sorted(out)


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "errors.py"))
def test_only_errors_checks_numbers_by_hand(path):
    # numbers read from a file convert through errors.real and
    # errors.integer, the one place that tells a bool from a number
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    assert _bool_tests(tree) == []


def test_the_check_sees_a_hand_written_number_check():
    tree = ast.parse("def f(v):\n"
                     "    if isinstance(v, bool):\n"
                     "        return 0\n"
                     "    ok = isinstance(v, (int, bool)) \\\n"
                     "        or isinstance(v, int)\n"
                     "    return type(v) is bool or bool(ok)\n")
    assert _bool_tests(tree) == [2, 4]


def _primed_products(tree: ast.Module) -> list[int]:
    """The line of each product with an ``E`` attribute as a factor: a
    hole's primed radius E·t written out, where ``HoleFamily``'s
    ``primed_radii`` states it."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp)
                  and isinstance(node.op, ast.Mult)
                  and any(isinstance(side, ast.Attribute) and side.attr == "E"
                          for side in (node.left, node.right)))


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "construction.py"))
def test_only_construction_writes_the_primed_radius(path):
    # the packing and the family own E·t; every audit reads the family's
    # primed_radii and window_slack columns
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    assert _primed_products(tree) == []


def test_the_check_sees_a_primed_radius_written_out():
    tree = ast.parse("def f(family, ids, eps):\n"
                     "    t = family.ts[ids]\n"
                     "    radii = family.E * t\n"
                     "    rad = (family.ts[ids] * family.E)[:, None]\n"
                     "    decay = eps * family.E ** family.n\n"
                     "    return family.primed_radii[ids], family.E, E * t\n")
    assert _primed_products(tree) == [3, 4]


# the verdict constants, which only porous.bounds assigns
VERDICT_CONSTANTS = ("LEDGER_C", "DBOUND_C", "RESIDUE_GRAD_CAP",
                     "BUDGET_GRAD_CAP", "WITNESS_TOL")


def _bound_strays(tree: ast.Module, floats: bool) -> list[int]:
    """The line of each assignment to a verdict constant, by name or
    attribute, and with ``floats`` of each float literal: a bound stated
    outside ``porous.bounds``."""
    out = set()
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target] if isinstance(node, (ast.AnnAssign,
                                                    ast.AugAssign)) else []
        if any(getattr(t, "id", getattr(t, "attr", None))
               in VERDICT_CONSTANTS for t in targets):
            out.add(node.lineno)
        if floats and isinstance(node, ast.Constant) \
                and isinstance(node.value, float):
            out.add(node.lineno)
    return sorted(out)


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "bounds.py"))
def test_only_bounds_states_a_verdict_bound(path):
    # porous.bounds is the one home of the proof chain's constants, and
    # the command line computes no bound of its own
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    assert _bound_strays(tree, floats=path == "cli.py") == []


def test_the_check_sees_a_bound_outside_the_table():
    tree = ast.parse("LEDGER_C = 2000.0\n"
                     "from porous.bounds import DBOUND_C\n"
                     "verification.WITNESS_TOL = 1e-3\n"
                     "ceiling = DBOUND_C * 2\n"
                     "quarter = alpha / 4.0\n"
                     "EXIT_FAIL = 2\n"
                     "RESIDUE_GRAD_CAP: float = 1 / 32\n"
                     "BUDGET_GRAD_CAP += 0\n")
    assert _bound_strays(tree, floats=False) == [1, 3, 7, 8]
    assert _bound_strays(tree, floats=True) == [1, 3, 5, 7, 8]


# a schema's bounds, which only the settings' dataclass fields state
BOUNDS = ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")


def _bound_literals(tree: ast.Module) -> list[int]:
    """The line of each bound stated under tree: a dict entry or keyword
    argument named for a bound."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            out += [key.lineno for key in node.keys
                    if isinstance(key, ast.Constant) and key.value in BOUNDS]
        elif isinstance(node, ast.keyword) and node.arg in BOUNDS:
            out.append(node.value.lineno)
    return sorted(out)


def test_config_states_no_bound():
    # each bound is stated on the field it bounds
    tree = ast.parse((SRC / "config.py").read_text(encoding="utf-8"))
    assert _bound_literals(tree) == []


def test_the_check_sees_a_bound_literal():
    tree = ast.parse("a = {'type': 'integer', 'minimum': 3}\n"
                     "b = dict(maximum=LIMIT)\n"
                     "c = setting(1, type='number',\n"
                     "            exclusiveMinimum=0)\n"
                     "d = {'exclusiveMaximum': _bound(ge, 'x'),\n"
                     "     'maximums': 4, 'type': 'minimum'}\n")
    assert _bound_literals(tree) == [1, 2, 4, 5]


# the schema keywords that only errors.conform reads
READ_KEYWORDS = BOUNDS + ("minItems", "items")


def _keys_read(tree: ast.AST) -> list[tuple[str, int]]:
    """Each string constant under tree that a subscript or a ``.get`` call
    reads, with its line."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            key = node.slice
        elif isinstance(node, ast.Call) and node.args \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get":
            key = node.args[0]
        else:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            out.append((key.value, node.lineno))
    return sorted(out, key=lambda read: read[1])


def _bound_reads(tree: ast.AST) -> list[int]:
    return [line for key, line in _keys_read(tree) if key in READ_KEYWORDS]


def test_only_errors_reads_a_bound():
    # errors.conform is the one reader of a setting's schema
    reads = {path.name: _bound_reads(ast.parse(path.read_text(
        encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))
        if path.name != "errors.py"}
    assert {name: lines for name, lines in reads.items() if lines} == {}


def test_the_check_sees_a_bound_read():
    tree = ast.parse("a = schema['maximum']\n"
                     "b = s.get('minItems', 1)\n"
                     "c = s.get('type'), s['schema'], d.items(), s[key]\n"
                     "e = f(s)['items']\n"
                     "g = {'minimum': 3}.get(k)\n")
    assert _bound_reads(tree) == [1, 2, 4]


def _conform_reads() -> set[str]:
    """The schema keywords that ``errors.conform`` reads."""
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    conform = next(node for node in tree.body if isinstance(
        node, ast.FunctionDef) and node.name == "conform")
    return {key for key, _ in _keys_read(conform)}


def _unread_keywords(classes, reads: set[str]) -> set[str]:
    """``Class.field: keyword`` for each keyword outside ``reads`` in the
    schema of a field of the dataclasses given, an array's items'
    included."""
    out = set()
    for cls in classes:
        for f in dataclasses.fields(cls):
            schema = f.metadata.get("schema")
            while schema:
                out |= {f"{cls.__name__}.{f.name}: {keyword}"
                        for keyword in schema.keys() - reads}
                schema = schema.get("items")
    return out


def test_setting_schemas_hold_only_keywords_conform_reads():
    reads = _conform_reads()
    assert {"type", "minimum", "items"} <= reads
    assert _unread_keywords((BuildConfig, AuditSettings, SamplingBudget),
                            reads) == set()


def test_the_check_sees_a_keyword_conform_does_not_read():
    @dataclasses.dataclass(frozen=True)
    class Listed:
        values: tuple = setting((1.0,), type="array", minItems=1, items={
            "type": "number", "exclusiveMinimum": 0, "multipleOf": 2})
        count: int = setting(1, type="integer", minimum=1)

    assert _unread_keywords((Listed,), _conform_reads()) == {
        "Listed.values: minItems", "Listed.values: multipleOf"}


# fields of the settings classes that no config key sets, each with the
# reason; a budget field is set by a section of its own
UNSET_FIELDS = {"BuildConfig.config_hash": "the sha256 of the config "
                                           "file's bytes"}


def _fields_without_schema(classes) -> set[str]:
    """``Class.field`` for each field of the dataclasses given that holds
    no schema in its metadata and no dataclass by default."""
    return {f"{cls.__name__}.{f.name}" for cls in classes
            for f in dataclasses.fields(cls)
            if "schema" not in f.metadata
            and not dataclasses.is_dataclass(f.default)}


def test_every_field_a_config_sets_states_its_schema():
    missing = _fields_without_schema((BuildConfig, AuditSettings,
                                      SamplingBudget))
    assert sorted(missing - set(UNSET_FIELDS)) == []  # a field with no bound
    assert sorted(set(UNSET_FIELDS) - missing) == []  # a reason gone stale


def test_the_check_sees_a_field_without_schema():
    @dataclasses.dataclass(frozen=True)
    class Inner:
        size: int = setting(2, type="integer", minimum=1)

    @dataclasses.dataclass(frozen=True)
    class Outer:
        bounded: int = setting(1, type="integer", minimum=0)
        unbounded: int = 3
        inner: Inner = Inner()
        label: str = ""

    assert _fields_without_schema((Outer, Inner)) == {"Outer.unbounded",
                                                      "Outer.label"}
