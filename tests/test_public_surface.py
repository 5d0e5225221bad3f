"""Every name the bundleforge package exports, the lazily imported matrix
names included, has a reader: library code outside its own definition (the
CLI included), a benchmark script or the traced run's name table, or a
statement of the paper on the short list below.  A public name with none of
these is dead API, and this fails until it leaves the package.  So does
every other top-level function and class of the package's modules, private
ones included, and every public method or property of an exported class
that no library code or benchmark script reads, by name, outside its own
body."""

import ast
import importlib
import types
from pathlib import Path

import bundleforge
from test_tracing_names import BENCHMARKS, LAYERS, REFERENCES

SRC = Path(bundleforge.__file__).resolve().parent

#: Exports that no library code calls, kept because they state a paper
#: construction or an acceptance criterion.
PAPER_STATEMENTS = {
    # Acceptance criterion 7: the spectra of the box and strong products.
    "cartesian_spectrum",
    "strong_spectrum",
    # The pullback's universal map and its functoriality.
    "canonical_map",
    "compose_pullbacks_check",
    # The pairing of two maps into a subdirect product, and bundle sections.
    "pair_morphism",
    "is_section",
}


def exported() -> dict[str, object]:
    """The package's public names: dir() lists the matrix names that the
    package imports on first access, next to the ones it binds at load."""
    return {
        name: getattr(bundleforge, name)
        for name in dir(bundleforge)
        if not name.startswith("_") and not isinstance(getattr(bundleforge, name), types.ModuleType)
    }


def free_loads(node, bound=frozenset()):
    """The names node loads that no enclosing function binds: reads of
    module-level names.  Parameters, assignments and local imports bind."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        bound = bound | {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a}
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                bound |= {sub.id}
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                bound |= {(a.asname or a.name).split(".")[0] for a in sub.names}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from free_loads(child, bound)


def module_reads(source: str, stem: str) -> set[tuple[str, str]]:
    """(module, name) for each bundleforge module-level name that the module
    stem reads: imported by name, read as an attribute of an imported
    module, or read in its own module outside the top-level definition that
    binds it."""
    tree = ast.parse(source)
    reads, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level or (node.module or "").split(".")[0] == "bundleforge"
            module = (node.module or "").removeprefix("bundleforge").lstrip(".")
            for a in node.names if package else ():
                if module:
                    reads.add((module, a.name))
                else:
                    modules[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("bundleforge.") and a.asname:
                    modules[a.asname] = a.name.split(".")[1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            reads.add((modules[node.value.id], node.attr))
    for top in tree.body:
        own = getattr(top, "name", None)
        reads |= {(stem, name) for name in free_loads(top) if name != own and name not in modules}
    return reads


def resolve(module: str, attr: str):
    return getattr(importlib.import_module(f"bundleforge.{module}"), attr, None)


def library_reads() -> set[int]:
    """The ids of the objects that modules of src/bundleforge other than
    the package's __init__ read."""
    paths = [path for path in SRC.glob("*.py") if path.name != "__init__.py"]
    reads = set().union(*(module_reads(path.read_text(), path.stem) for path in paths))
    return {id(resolve(module, name)) for module, name in reads}


def benchmark_reads() -> set[int]:
    """The ids of the objects a benchmark script reads off bundleforge,
    each along the attribute path it reads (bf.products and
    bf.products.make_covering_voltage), and of the traced names."""
    read = set()
    for module, attrs in REFERENCES:
        obj = importlib.import_module(module)
        for attr in attrs:
            obj = getattr(obj, attr)
            read.add(id(obj))
    for layer, names in LAYERS.items():
        read |= {id(resolve(layer, name)) for name in names}
    return read


def unread() -> list[str]:
    read = library_reads() | benchmark_reads()
    return sorted(name for name, obj in exported().items() if id(obj) not in read)


def test_every_export_has_a_reader():
    assert sorted(set(unread()) - PAPER_STATEMENTS) == []


def test_paper_statements_are_exports_with_no_other_reader():
    # The list stays short: a listed name that leaves the package, or that
    # gains a reader, leaves the list too.
    assert unread() == sorted(PAPER_STATEMENTS)


def unread_definitions() -> list[tuple[str, str]]:
    """(module, name) for each top-level def and class of the package's
    modules, __init__ and __main__ aside, that nothing above reads."""
    read = library_reads() | benchmark_reads()
    return sorted(
        (path.stem, top.name)
        for path in SRC.glob("*.py")
        if path.stem not in ("__init__", "__main__")
        for top in ast.parse(path.read_text()).body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and id(resolve(path.stem, top.name)) not in read
    )


def test_every_definition_has_a_reader():
    unread = unread_definitions()
    assert [f"{module}.{name}" for module, name in unread if name not in PAPER_STATEMENTS] == []
    # The paper's statements are the only unread definitions, and each is one.
    assert {name for _, name in unread} == PAPER_STATEMENTS


def test_the_walk_tells_a_module_name_from_a_local_one():
    # A parameter named fiber is no read of a module-level fiber, and a
    # definition does not read itself.
    source = (
        "from .graphs import make_graph\n"
        "from . import graphs as g\n"
        "def fiber(f, v):\n"
        "    return fiber\n"
        "def f(fiber, x):\n"
        "    y = fiber.n\n"
        "    return make_graph(x, y), g.cycle_graph, helper(y)\n"
        "def helper(z):\n"
        "    return helper\n"
    )
    assert module_reads(source, "demo") == {
        ("graphs", "make_graph"),
        ("graphs", "cycle_graph"),
        ("demo", "make_graph"),
        ("demo", "helper"),
    }
    assert id(resolve("graphs", "make_graph")) in library_reads()


#: Every exported class: their public methods and properties need a reader.
CLASSES = tuple(sorted(name for name, obj in exported().items() if isinstance(obj, type)))

#: Members that no library code reads, kept because they state the paper's
#: definitions.
PAPER_MEMBERS = {
    # The fibers p⁻¹(v) of a bundle projection.
    ("GraphMorphism", "preimages"),
    # The voltage φ on the oriented edges of the base, by labels.
    ("FiberVoltage", "phi"),
    # The zero of the K-monoid: the trivial bundle class at each fiber power.
    ("KClassMonoid", "trivial_class"),
}


def attribute_reads(source: str) -> set[tuple[str, tuple]]:
    """(name, owner) for each attribute the source reads, owner being the
    (class, member) whose body holds the read, or None outside classes."""
    reads = set()

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                visit(child, (node.name, getattr(child, "name", None)))
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add((node.attr, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return reads


def unread_members() -> list[tuple[str, str]]:
    paths = [*SRC.glob("*.py"), *BENCHMARKS.glob("*.py")]
    reads = set().union(*(attribute_reads(path.read_text()) for path in paths))
    return sorted(
        (cls, name)
        for cls in CLASSES
        for name in vars(getattr(bundleforge, cls))
        if not name.startswith("_") and not any(attr == name and owner != (cls, name) for attr, owner in reads)
    )


def test_every_public_member_has_a_reader():
    assert sorted(set(unread_members()) - PAPER_MEMBERS) == []


def test_paper_members_have_no_other_reader():
    assert unread_members() == sorted(PAPER_MEMBERS)


def test_a_member_read_only_in_its_own_body_is_unread():
    source = (
        "class P:\n"
        "    def spin(self):\n"
        "        return self.spin\n"
        "    def turn(self):\n"
        "        return self.spin()\n"
        "def f(p):\n"
        "    p.turn = 1\n"
        "    return p.n\n"
    )
    assert attribute_reads(source) == {("spin", ("P", "spin")), ("spin", ("P", "turn")), ("n", None)}
