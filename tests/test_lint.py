"""Static checks no installed linter covers: on the package source, and on the names the benchmark reads."""

import ast
import functools
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import patternqkd

SOURCES = sorted(Path(patternqkd.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports of ``source`` that nothing reads, apart from
    ``__future__`` imports, names in ``__all__`` and imports on a line marked ``# noqa: F401``."""
    tree, lines = ast.parse(source), source.splitlines()
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            if "# noqa: F401" not in lines[node.lineno - 1]:
                for alias in node.names:
                    bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    # A quoted annotation names what it reads only inside its string.
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            every = [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs, arguments.vararg, arguments.kwarg]
            annotations = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            for inner in ast.walk(annotation) if annotation is not None else ():
                if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
                    read |= {n.id for n in ast.walk(ast.parse(inner.value, mode="eval")) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read | exported]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_every_module_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401 - re-exported\n"
        "from dataclasses import replace\n"
        "from typing import Optional\n"
        "from . import api\n"
        "__all__ = ['api']\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return None\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: replace"]


def assert_statements(source: str) -> list[int]:
    """The line of each ``assert`` statement in ``source``.  ``python -O`` strips them, so a check the package
    needs at run time raises ``AssertionError`` itself."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_module_has_an_assert_statement(path):
    assert assert_statements(path.read_text()) == []


def test_the_check_finds_an_assert_statement():
    source = (
        "def f(x):\n"
        "    if not x:\n"
        "        raise AssertionError('kept under -O')\n"
        "    assert x, 'stripped under -O'\n"
        "    return [y for y in x if y]\n"
    )
    assert assert_statements(source) == [4]


def imports_of(source: str, module: str) -> list[int]:
    """The line of each import in ``source`` that reads the package module ``module``: ``from .module import``,
    ``from . import module``, ``import patternqkd.module`` and their absolute or aliased forms."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            home = (node.module or "").split(".")
            names = [alias.name for alias in node.names] if home[-1] in ("", "patternqkd") else []
            lines += [node.lineno] if home[-1] == module or module in names else []
        elif isinstance(node, ast.Import):
            lines += [node.lineno] if any(alias.name.split(".")[-1] == module for alias in node.names) else []
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_module_imports_quantum_core(path):
    # quantum_core serves readers outside the package only, so no command executes it
    assert imports_of(path.read_text(), "quantum_core") == []


def test_the_check_finds_an_import_of_a_module():
    source = (
        "from .quantum_core import apply_permutation\n"
        "from . import code5, quantum_core as qc\n"
        "import patternqkd.quantum_core\n"
        "from patternqkd.quantum_core import apply_permutation as permute\n"
        "from patternqkd import quantum_core\n"
        "from .code5 import quantum_core_like, DIM\n"
        "import quantum_core_free\n"
        "def f():\n    from .quantum_core import apply_permutation\n"
        "_lazy('quantum_core')\n"
    )
    assert imports_of(source, "quantum_core") == [1, 2, 3, 4, 5, 9]


# Public names that no package module reads, each kept for a reader outside the package (a method as
# ``module.Class.name``).
UNREAD_BY_THE_PACKAGE = {
    "code5.encode_logical": "bench/ builds its statevector stages from it",
    "code5.decode_distribution": "bench/test_bench.py takes it as its statevector reference",
    "analysis.chi_physical_sweep": "bench/ times the chi sweep with it",
    "quantum_core.apply_permutation": "bench/ permutes its statevectors with it",
}


def _names_read(node: ast.AST) -> set[str]:
    """The names ``node`` reads, a ``globals()[f"prefix..."]`` lookup reading ``prefix*``."""
    names = set()
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load):
            names.add(inner.id)
        elif (
            isinstance(inner, ast.Subscript) and isinstance(inner.slice, ast.JoinedStr)
            and isinstance(inner.value, ast.Call) and getattr(inner.value.func, "id", None) == "globals"
            and inner.slice.values and isinstance(inner.slice.values[0], ast.Constant)
        ):
            names.add(inner.slice.values[0].value + "*")
    return names


def _attributes_read(node: ast.AST) -> Counter:
    """How often ``node`` reads each attribute name, as ``X.name``."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each public module-level function or class of ``sources`` (module name -> text) that
    no ``__all__`` lists and that nothing reads: not another module, by import or as an attribute of the module,
    nor its own module outside the definition itself.  Then ``module.Class.name`` for each public method or
    property of a public class (dunders are private here) that nothing reads as ``X.name``, ``cls.name`` included,
    outside the method itself."""
    read, exported, public, methods, attributes = set(), set(), [], [], Counter()
    for module, text in sources.items():
        tree = ast.parse(text)
        attributes += _attributes_read(tree)
        methods += [
            (f"{module}.{node.name}.{item.name}", _attributes_read(item)[item.name])
            for node in tree.body if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for item in node.body if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
        ]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                public += [(module, node.name)] if not node.name.startswith("_") else []
                read |= {(module, name) for name in _names_read(node) if name != node.name}
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exported |= set(ast.literal_eval(node.value))
            else:
                read |= {(module, name) for name in _names_read(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                read |= {(node.module.rsplit(".", 1)[-1], alias.name) for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read.add((node.value.id, node.attr))
    prefixes = [(module, name[:-1]) for module, name in read if name.endswith("*")]
    return [
        f"{module}.{name}" for module, name in public
        if (module, name) not in read and name not in exported
        and not any(module == m and name.startswith(prefix) for m, prefix in prefixes)
    ] + [method for method, own in methods if attributes[method.rsplit(".", 1)[-1]] == own]


def test_every_public_name_is_read_by_the_package():
    names = unread_public_names({path.stem: path.read_text() for path in SOURCES})
    assert sorted(names) == sorted(UNREAD_BY_THE_PACKAGE)


def test_the_check_finds_an_unread_public_name():
    sources = {
        "a": "def used(): pass\ndef unused(): pass\ndef _private(): pass\ndef recursive(): return recursive()\n"
             "class Exported: pass\n__all__ = ['Exported']\ndef caller(): return local()\ndef local(): pass\n",
        "b": "from .a import used, caller\nfrom . import c\ndef helper(): return used() + c.read() + caller()\n"
             "def cmd_run(): pass\ndef main(name): return globals()[f'cmd_{name}']()\n",
        "c": "def read(): pass\ndef planted(): pass\n",
        "d": "from .b import helper, main\n",
    }
    assert unread_public_names(sources) == ["a.unused", "a.recursive", "c.planted"]


def test_the_check_finds_an_unread_method():
    sources = {
        "e": "class Value:\n"
             "    def __repr__(self): return 'Value()'\n"
             "    @classmethod\n    def unread_maker(cls): return cls()\n"
             "    @property\n    def unread_view(self): return 1\n"
             "    @classmethod\n    def parse(cls, text): return cls.checked(text)\n"
             "    @classmethod\n    def checked(cls, text): return cls()\n"
             "    def again(self): return self.again()\n"
             "    def _private(self): pass\n"
             "class _Hidden:\n    def unread(self): pass\n",
        "f": "from .e import Value\nVALUE = Value.parse('x')\n",
    }
    assert unread_public_names(sources) == ["e.Value.unread_maker", "e.Value.unread_view", "e.Value.again"]


def defined_functions(sources: dict[str, str]) -> set[str]:
    """``module.qualname`` of every ``def`` in ``sources`` (module name -> text), as its code object names it:
    ``Class.method``, and ``outer.<locals>.inner`` for a nested one."""
    names = set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
                visit(child, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix)

    for module, text in sources.items():
        visit(ast.parse(text), f"{module}.")
    return names


def test_the_def_census_names_methods_and_nested_functions():
    source = "def outer():\n    def inner(): pass\nclass Value:\n    def method(self):\n        return lambda: 1\n"
    assert defined_functions({"m": source}) == {"m.outer", "m.outer.<locals>.inner", "m.Value.method"}


# Runs every subcommand in one process under sys.settrace, in the directory argv[1], and prints as JSON the
# (file, qualname) of each code object entered and each run's exit code.
_TRACED_RUN = """
import contextlib, io, json, os, sys

entered = set()

def trace(frame, event, arg):
    entered.add((frame.f_code.co_filename, frame.f_code.co_qualname))

sys.settrace(trace)
from patternqkd import cli

os.chdir(sys.argv[1])
configs = {
    "uniform": "secret_set = 12345 13452\\neve.kind = intercept_resend",
    "noisy": "logical_basis = X\\nnoise.per_qubit_flip_prob = 0.05\\nnoise.distance_km = 5\\n"
             "noise.mean_photon_number = 0.3\\neve.kind = intercept_resend\\neve.knowledge = overlap=1",
    "guessed": "eve.kind = intercept_resend\\neve.knowledge = 12345 23451",
    "honest": "",
    "unknown": "bogus = 1",
}
for name, text in configs.items():
    with open(f"{name}.cfg", "w") as handle:
        handle.write(f"num_blocks = 200\\nmaster_seed = 7\\n{text}\\n")
runs = [
    ["enumerate", "--out", "enumerate", "--sets-csv"],
    ["analyze"],
    ["analyze", "--mu", "0,0.3", "--out", "report.txt", "--chi-csv", "chi.csv"],
    ["analyze", "--set-id", "6540"],
    *(["simulate", "--config", f"{name}.cfg", "--out", name] for name in configs),
    *(["sweep", "--config", "honest.cfg", "--out", axis, "--axis", axis, "--values", values]
      for axis, values in (("distance_km", "0,5"), ("per_qubit_flip_prob", "0,0.05"),
                           ("mean_photon_number", "0,0.3"), ("eve_overlap", "0,1,2"))),
]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
sys.settrace(None)
print(json.dumps({"entered": sorted(entered), "codes": codes}))
"""


def test_every_def_is_entered_by_some_subcommand(tmp_path):
    # A def that no subcommand enters serves only its tests or a reader outside the package, and the second
    # kind is named in UNREAD_BY_THE_PACKAGE; no package def reads valid_pattern_sets: bench/ reads it through
    # analysis's noqa re-export, and the tests read it too.
    package = Path(patternqkd.__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(package.parent), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(tmp_path)], capture_output=True, text=True, check=True, env=env
    )
    result = json.loads(done.stdout)
    # enumerate; analyze twice, then a bad --set-id; simulate: three interceptors abort, honest continues, an
    # unknown key; the four sweeps
    assert result["codes"] == [0, 0, 0, 2, 3, 3, 3, 0, 2, 0, 0, 0, 0]
    entered = {
        f"{Path(file).stem}.{name}" for file, name in result["entered"] if Path(file).parent == package
    }
    defined = defined_functions({path.stem: path.read_text() for path in SOURCES})
    assert sorted(defined - entered) == sorted([*UNREAD_BY_THE_PACKAGE, "patterns.valid_pattern_sets"])


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _resolves(module: str, name: str) -> bool:
    """Whether ``from module import name`` works: ``name`` is an attribute or a submodule of ``module``."""
    try:
        return hasattr(importlib.import_module(module), name) or bool(importlib.util.find_spec(f"{module}.{name}"))
    except ModuleNotFoundError:
        return False


def missing_bench_names(sources: dict[str, str], loaded: set[str]) -> list[str]:
    """What the bench reads from the package and the package lacks, for ``sources`` (bench file name -> text)
    and ``loaded`` (the modules in ``sys.modules`` once ``cli`` is imported): each name a
    ``from patternqkd... import`` imports, each attribute read off a package module that such an import binds,
    each attribute chain ``workloads.py`` reads off its ``cli`` argument, and each layer of ``tracer.LAYERS``
    that importing ``cli`` does not load."""
    from patternqkd import cli

    missing = []
    for file, text in sources.items():
        tree = ast.parse(text)
        modules = {
            alias.asname or alias.name: f"{node.module}.{alias.name}"
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "patternqkd"
            for alias in node.names if importlib.util.find_spec(f"{node.module}.{alias.name}")
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "patternqkd":
                names = [alias.name for alias in node.names if not _resolves(node.module, alias.name)]
                missing += [f"{file}: {node.module}.{name}" for name in names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                module = modules[node.value.id]
                missing += [] if _resolves(module, node.attr) else [f"{file}: {module}.{node.attr}"]
            if file == "workloads.py" and isinstance(node, ast.Attribute):
                chain, root = [], node
                while isinstance(root, ast.Attribute):
                    chain, root = [root.attr, *chain], root.value
                if getattr(root, "id", None) == "cli":
                    try:
                        functools.reduce(getattr, chain, cli)
                    except AttributeError:
                        missing.append(f"{file}: cli.{'.'.join(chain)}")
            elif file == "tracer.py" and isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS":
                layers = ast.literal_eval(node.value)
                missing += [f"{file}: LAYERS {layer}" for layer in layers if f"patternqkd.{layer}" not in loaded]
    return sorted(set(missing))


# Names the bench reads and the package lacks, each with why the bench still reads it.
STALE_BENCH_READS = {
    "test_bench.py: patternqkd.channel.eve_apply": "test_tracer_patches_names_imported_by_protocol asserts "
    "protocol.eve_apply is channel.eve_apply; red since eve_apply left both modules, until ROADMAP item 1 re-pins it",
    "test_bench.py: patternqkd.protocol.eve_apply": "the same assertion of the same red test",
}


def test_every_name_the_bench_reads_exists():
    src = str(Path(patternqkd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys; from patternqkd import cli; print(' '.join(sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    sources = {path.name: path.read_text() for path in sorted(BENCH.glob("*.py"))}
    assert {"workloads.py", "tracer.py", "test_bench.py"} <= set(sources)
    assert missing_bench_names(sources, set(done.stdout.split())) == sorted(STALE_BENCH_READS)


def test_the_bench_check_finds_a_missing_name():
    sources = {
        "test_bench.py": "from patternqkd import cli, gone_module\n"
                         "from patternqkd.analysis import binary_entropy, gone\n"
                         "from patternqkd.gone_too import anything\n"
                         "from patternqkd import code5 as c5, protocol\n"
                         "from patternqkd.quantum_core import apply_permutation\n"
                         "def test(other):\n    return (c5.encode_logical, c5.gone_reader, protocol.gone_attr,\n"
                         "            apply_permutation.__wrapped__, gone_module.anything, other.gone)\n",
        "workloads.py": "def op(cli):\n    cli.main([])\n    cli.analysis.chi_by_relative()\n"
                        "    return cli.analysis.gone_function(), other.gone\n",
        "tracer.py": "LAYERS = ('code5', 'analysis', 'gone_layer')\n",
    }
    loaded = {"patternqkd.code5", "patternqkd.analysis"}
    assert missing_bench_names(sources, loaded) == [
        "test_bench.py: patternqkd.analysis.gone",
        "test_bench.py: patternqkd.code5.gone_reader",
        "test_bench.py: patternqkd.gone_module",
        "test_bench.py: patternqkd.gone_too.anything",
        "test_bench.py: patternqkd.protocol.gone_attr",
        "tracer.py: LAYERS gone_layer",
        "workloads.py: cli.analysis.gone_function",
    ]
