"""Source hygiene checks that need no third-party linter."""

from __future__ import annotations

import ast
import importlib.util
import math
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "rankbandit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# where a library name may be used: the library, its tests and the benchmark
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (REPO / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (``__future__`` imports excepted)."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                            key=lambda kv: kv[1])
            if name not in used]


def test_finds_an_unused_import():
    source = "import math\nfrom os import path, sep\n\nprint(math.pi, sep)\n"
    assert unused_imports(source) == ["line 2: path"]


IMPORTERS = MODULES + sorted(p for d in ("tests", "bench") for p in (REPO / d).glob("*.py"))


def _importer_id(path):
    """The library by file name, the tests and the benchmark by folder and name."""
    return path.name if path.parent == PACKAGE else f"{path.parent.name}/{path.name}"


@pytest.mark.parametrize("module", IMPORTERS, ids=_importer_id)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def unreferenced_definitions(module, sources: dict) -> list[str]:
    """Module-level functions and classes of ``module`` whose name appears in
    no file of ``sources`` (path -> text) outside their own definition."""
    tree = ast.parse(sources[module])
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        word = re.compile(rf"\b{re.escape(node.name)}\b")
        own = range(node.lineno, node.end_lineno + 1)
        used = any(word.search(line)
                   for path, text in sources.items()
                   for k, line in enumerate(text.splitlines(), 1)
                   if not (path == module and k in own))
        if not used:
            out.append(f"line {node.lineno}: {node.name}")
    return out


def test_finds_an_unreferenced_definition():
    module = ("def used():\n    return 1\n\n\n"
              "def orphan():\n    return orphan()\n\n\n"
              "class Named:\n    pass\n")
    sources = {"pkg/mod.py": module,
               "tests/test_mod.py": "from pkg.mod import used\n",
               "bench/targets.py": 'TARGETS = ["mod.Named"]\n'}
    assert unreferenced_definitions("pkg/mod.py", sources) == ["line 5: orphan"]


@pytest.fixture(scope="module")
def sources():
    return {p: p.read_text() for p in SOURCES}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_definition_is_referenced(module, sources):
    assert unreferenced_definitions(module, sources) == []


# Where a public method, property or keyword of the library counts as used:
# the library itself, the benchmark and the acceptance suite. Unit tests do
# not count; a helper only they need lives in the tests.
REACH = sorted(p for d in ("src", "bench") for p in (REPO / d).rglob("*.py")) \
    + [REPO / "tests" / "test_acceptance.py"]

# Used in ways a syntax walk cannot see, each with its reason.
ALLOWED = {
    # run_episode looks the hook up with getattr; the README shows it
    "environments.py: AdaptiveWindows.observe",
    # counters that ROADMAP item 1's per-replication diagnostics will read
    "adversarial.py: EpsilonGreedyRanker.explorations",
    "extensions.py: QueuedDelayPolicy.enqueued",
    "extensions.py: QueuedDelayPolicy.dequeued",
    "extensions.py: SortResult.comparisons",
    # what run_episode's record_orders keeps; the golden orders digest pins it
    "environments.py: RegretTrace.orders",
    # failure state: the rank suffix whose mass falls short, and both masses
    "polytope.py: InfeasibleTargetError.suffix_start",
    "polytope.py: InfeasibleTargetError.required",
    "polytope.py: InfeasibleTargetError.actual",
}


def _is_self(node) -> bool:
    return isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self"


def reached(sources):
    """What the code in ``sources`` reaches: ``(names, attributes, qualified,
    calls, loads)``, where ``qualified`` holds ``Owner.attr`` for every
    attribute read off a name or an attribute ``Owner`` (so
    ``module.Owner.attr`` too), with ``cls`` read as its enclosing class,
    ``calls`` maps a callee name to each call's positional-argument count and
    keywords, and ``loads`` maps an attribute name to where it is loaded: the
    class ``C`` for a ``self.attr`` read inside ``C.__init__``, else ``""``.
    Strings and comments are not code, so nothing in them counts."""
    names: set[str] = set()
    attributes: set[str] = set()
    qualified: set[str] = set()
    calls: dict[str, list[tuple[int, set[str]]]] = {}
    loads: dict[str, set[str]] = {}
    for text in sources:
        tree = ast.parse(text)
        in_init: dict[int, str] = {}  # id of a self.attr read in C.__init__ -> C
        for klass in ast.walk(tree):
            if isinstance(klass, ast.ClassDef):
                qualified.update(f"{klass.name}.{node.attr}" for node in ast.walk(klass)
                                 if isinstance(node, ast.Attribute)
                                 and getattr(node.value, "id", None) == "cls")
                for fn in klass.body:
                    if getattr(fn, "name", None) == "__init__":
                        in_init.update((id(node), klass.name) for node in ast.walk(fn)
                                       if _is_self(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    loads.setdefault(node.attr, set()).add(in_init.get(id(node), ""))
                # the class as a bare name or as a module attribute
                owner = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
                if owner is not None:
                    qualified.add(f"{owner}.{node.attr}")
            elif isinstance(node, ast.Call):
                func = node.func
                callee = getattr(func, "id", None) or getattr(func, "attr", None)
                if callee is None:
                    continue
                # *args passes every position, **kwargs (keyword None) every name
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(callee, []).append(
                    (math.inf if starred else len(node.args),
                     {k.arg for k in node.keywords}))
    return names, attributes, qualified, calls, loads


def _defaulted(fn: ast.FunctionDef, bound: int) -> list[tuple[str, float]]:
    """``(name, position)`` of each parameter with a default; the position
    counts call arguments (``bound`` leading ones are self or cls) and is
    infinite for a keyword-only parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, k - bound) for k, a in enumerate(positional) if k >= first]
    out += [(a.arg, math.inf) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _fields(klass: ast.ClassDef) -> list[str]:
    """Public data fields of a class, in order of first appearance: the
    annotated names of a dataclass body and every ``self.attr`` assigned in
    its methods."""
    dataclass = any("dataclass" in (getattr(d, "id", None), getattr(d, "attr", None),
                                    getattr(getattr(d, "func", None), "id", None))
                    for d in klass.decorator_list)
    found = [node.target.id for node in klass.body if dataclass
             and isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
    found += [node.attr for node in ast.walk(klass)
              if _is_self(node) and isinstance(node.ctx, ast.Store)]
    return [f for f in dict.fromkeys(found) if not f.startswith("_")]


def unreached_surface(name: str, source: str, reach) -> list[str]:
    """Public functions, methods, properties and data fields of a module that
    ``reach`` (from :func:`reached`) never names, and defaulted parameters
    that no call of their callee passes by keyword or by position. A
    function is named by a name or an attribute, a method or property by an
    attribute, and a class or static method only as ``Class.method`` (or
    ``cls.method`` in its own class). A field of class ``C`` is reached by a
    load of the attribute, a call included, other than a ``self`` read in
    ``C.__init__``."""
    names, attributes, qualified, calls, loads = reach
    out = []
    for node in ast.parse(source).body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            # (label, definition, callee name, whether reached, bound args)
            members = [(node.name, node, node.name, node.name in names | attributes, 0)]
        elif isinstance(node, ast.ClassDef):
            members = []
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if fn.name == "__init__":
                    members.append((node.name, fn, node.name, True, 1))
                elif not fn.name.startswith("_"):
                    label = f"{node.name}.{fn.name}"
                    kind = {getattr(d, "id", None) for d in fn.decorator_list}
                    if kind & {"classmethod", "staticmethod"}:
                        reach_it = label in qualified
                    else:
                        reach_it = fn.name in attributes
                    members.append((label, fn, fn.name, reach_it,
                                    0 if "staticmethod" in kind else 1))
            methods = {fn.name for fn in node.body if isinstance(fn, ast.FunctionDef)}
            out += [f"{name}: {node.name}.{f}" for f in _fields(node)
                    if f not in methods and not loads.get(f, set()) - {node.name}]
        else:
            continue
        for label, fn, callee, is_reached, bound in members:
            if not is_reached:
                out.append(f"{name}: {label}")
                continue
            for param, position in _defaulted(fn, bound):
                if not any(param in keywords or None in keywords or count > position
                           for count, keywords in calls.get(callee, ())):
                    out.append(f"{name}: {label}({param}=)")
    return out


def test_finds_an_unreached_keyword():
    module = "def scaled(x, scale=1.0, *, shift=0.0):\n    return x * scale + shift\n"
    assert unreached_surface("mod.py", module, reached(["scaled(2)"])) == [
        "mod.py: scaled(scale=)", "mod.py: scaled(shift=)"]
    assert unreached_surface("mod.py", module, reached(["scaled(2, 3.0, shift=1)"])) == []
    assert unreached_surface("mod.py", module, reached(["scaled(*args, **kw)"])) == []


def test_strings_do_not_reach():
    module = ("class Ranker:\n"
              "    def __init__(self, q, changing=False):\n        pass\n\n"
              "    def rank(self):\n        pass\n\n"
              "    @property\n    def size(self):\n        return 0\n")
    code = ('r = Ranker([1.0])\n'
            '# r.rank()\n'
            'raise ValueError("construct with Ranker(q, changing=True), then r.size")\n')
    assert unreached_surface("mod.py", module, reached([code])) == [
        "mod.py: Ranker(changing=)", "mod.py: Ranker.rank", "mod.py: Ranker.size"]


def test_class_methods_are_reached_through_their_class():
    module = ("class Tape:\n"
              "    @classmethod\n    def load(cls, path):\n        return cls.parse(path)\n\n"
              "    @classmethod\n    def parse(cls, text):\n        return cls()\n\n"
              "    @staticmethod\n    def blank():\n        return Tape()\n\n"
              "    @classmethod\n    def save(cls):\n        pass\n\n"
              "    def size(self):\n        return 0\n\n\n"
              "class Trace:\n"
              "    @classmethod\n    def load(cls):\n        return cls.blank()\n")
    # an instance's save, or cls.blank in another class, is not Tape's
    code = "mod.Tape.load('t.csv').size()\ntrace.save()\nTrace.load()\n"
    assert unreached_surface("mod.py", module, reached([module, code])) == [
        "mod.py: Tape.blank", "mod.py: Tape.save"]


def test_fields_are_reached_by_loads():
    module = ("class Source:\n"
              "    def __init__(self, fn, n):\n"
              "        self.fn = fn\n        self.n = n\n        self.size = self.n + 1\n"
              "        self.seen = 0\n        self._cache = None\n\n"
              "    def draw(self, t):\n        self.seen += 1\n        return self.fn(t)\n")
    # own-__init__ reads, stores and an augmented store do not reach
    assert unreached_surface("mod.py", module, reached([module, "s.draw(1)\n"])) == [
        "mod.py: Source.n", "mod.py: Source.size", "mod.py: Source.seen"]
    code = ('src = Source(abs, 3)\nsrc.draw(1)\n'
            '# src.size\n'
            'print("src.seen", src.n)\n')
    assert unreached_surface("mod.py", module, reached([module, code])) == [
        "mod.py: Source.size", "mod.py: Source.seen"]


def test_dataclass_fields_are_fields():
    module = ("@dataclass(frozen=True)\nclass Result:\n"
              "    order: tuple\n    trials: int = 0\n    LIMIT = 3\n")
    assert unreached_surface("mod.py", module, reached(["r.order\n"])) == [
        "mod.py: Result.trials"]
    # a read in another class's __init__ reaches a field of the same name
    other = "class Env:\n    def __init__(self, r):\n        self.trials = r.trials\n"
    assert unreached_surface("mod.py", module, reached(["r.order\n", other])) == []


@pytest.fixture(scope="module")
def reach():
    return reached(p.read_text() for p in REACH)


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_public_surface_is_reached(module, reach):
    found = unreached_surface(module.name, module.read_text(), reach)
    assert [item for item in found if item not in ALLOWED] == []


def test_allow_list_is_current(reach):
    found = {item for m in MODULES for item in unreached_surface(m.name, m.read_text(), reach)}
    assert ALLOWED <= found


# Benchmark trace targets that no longer resolve, so their metrics read 0:
# the dense LP and the per-trial peeling are gone, and Decomposition.sample
# moved to the tests.
STALE_TARGETS = {
    "harness.solve_lp",
    "adversarial.feasible_matrix",
    "adversarial.rfsm_decompose",
    "polytope.Decomposition.sample",
}


@pytest.fixture(scope="module")
def unresolved_targets():
    """The benchmark's trace targets, as ``module.attribute`` without the
    package prefix, that its own lookup cannot resolve."""
    spec = importlib.util.spec_from_file_location("tracing", REPO / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {f"{module.removeprefix('rankbandit.')}.{attr}"
            for _, module, attr in tracing.TARGETS if tracing._resolve(module, attr) is None}


def test_trace_targets_resolve(unresolved_targets):
    assert unresolved_targets - STALE_TARGETS == set()


def test_stale_targets_are_current(unresolved_targets):
    assert STALE_TARGETS <= unresolved_targets
