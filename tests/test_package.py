"""The package namespace after a bare ``import wavets`` in a fresh
interpreter, where no other import has loaded a submodule yet, and the
modules that start-up of the command line loads."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Names bench/workloads.py and bench/tests read from the package itself.
BENCH_NAMES = [
    "TokenizerConfig", "ThresholdSpec", "load_codebook", "load_model", "load_dataset",
    "split_last_h", "tokenize_pair", "pad_to_length", "cross_entropy", "decompose", "get_family",
]
SUBMODULES = ["data_synth", "data_io", "seq_model", "tokenizer", "dwt"]

# Distributions start-up of the command line may load: pyproject.toml's
# dependencies, and the package itself when it is installed.
DEPENDENCIES = {"numpy", "orjson", "PyYAML", "wavets"}

PROBE = """
import json, sys
before = set(sys.modules)
import wavets
result = {
    "file": wavets.__file__,
    "all": list(wavets.__all__),
    "unresolved": [n for n in wavets.__all__ if not hasattr(wavets, n)],
    "missing": [n for n in sys.argv[1:] if not hasattr(wavets, n)],
    "bench_reads": [
        callable(wavets.data_synth.make_dataset), callable(wavets.data_io.save_dataset)],
}
import wavets.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
from importlib.metadata import packages_distributions
owners = packages_distributions()
result["distributions"] = sorted({d for name in loaded for d in owners.get(name, [])})
print(json.dumps(result))
"""


def probe():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE, *BENCH_NAMES, *SUBMODULES],
                         env=env, cwd=SRC, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_bare_import_exposes_the_names_the_benchmark_reads():
    result = probe()
    assert Path(result["file"]).resolve().parent == SRC / "wavets"
    assert result["unresolved"] == []
    assert result["missing"] == []
    assert set(BENCH_NAMES) <= set(result["all"])
    assert result["bench_reads"] == [True, True]


def test_command_line_start_up_loads_only_the_declared_dependencies():
    assert sorted(set(probe()["distributions"]) - DEPENDENCIES) == []


def layout_calls(tree) -> int:
    """Calls of ``coefficient_layout`` under an AST node, bare or as an attribute."""
    return sum(isinstance(node, ast.Call) and "coefficient_layout" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(tree))


def test_only_dwt_and_the_tokenizer_know_about_wavelets():
    """The sampler deals in token ids; band layouts come from
    ``TokenizerConfig.layout``, the one place outside ``dwt`` that turns a
    configuration into band sizes."""
    imported = []  # (module within the package, name)
    for node in ast.walk(ast.parse((SRC / "wavets" / "seq_model.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("wavets").lstrip(".")
            imported += [(module or alias.name, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name.removeprefix("wavets").lstrip("."), None)
                         for alias in node.names]
    assert [module for module, _ in imported if module in ("dwt", "families")] == []
    assert {name for module, name in imported if module == "tokenizer"} <= {"TokenStream"}

    calls = {path.name: layout_calls(ast.parse(path.read_text()))
             for path in sorted((SRC / "wavets").glob("*.py")) if path.name != "dwt.py"}
    tokenizer = ast.parse((SRC / "wavets" / "tokenizer.py").read_text())
    (config,) = [node for node in tokenizer.body
                 if isinstance(node, ast.ClassDef) and node.name == "TokenizerConfig"]
    (layout,) = [node for node in config.body
                 if isinstance(node, ast.FunctionDef) and node.name == "layout"]
    assert layout_calls(layout) == 1
    assert {name: n for name, n in calls.items() if n} == {"tokenizer.py": 1}


def json_calls(tree, name: str) -> list[ast.Call]:
    """Calls of ``json.<name>`` under an AST node."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == name
            and getattr(node.func.value, "id", None) == "json"]


def test_one_json_lines_codec():
    """JSON is parsed only by the codebook and model loaders and by
    ``data_io``'s JSON-lines reader, the one user of orjson; the command
    line writes JSON only as whole documents (an ablation cell), never line
    by line."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((SRC / "wavets").glob("*.py"))}
    parsers = {name for name, tree in trees.items() if json_calls(tree, "loads")}
    assert parsers == {"data_io.py", "codebook.py", "seq_model.py"}
    assert {name for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Import) and "orjson" in [a.name for a in node.names]
            } == {"data_io.py"}
    dumps = json_calls(trees["cli.py"], "dumps")
    assert len(dumps) == 1 and [k.arg for k in dumps[0].keywords] == ["sort_keys", "indent"]
    assert not [node.name for node in ast.walk(trees["cli.py"]) if isinstance(node, ast.FunctionDef)
                and ("jsonl" in node.name or "record" in node.name)]


# The one import kept although its module never reads it: bench/tests
# patch every binding of dwt.decompose, this one included.
UNREAD_IMPORTS = {("cli.py", "decompose")}


def unread_imports(path: Path) -> set[tuple[str, str]]:
    """``(file name, name)`` for each name a module imports but never
    reads. A name listed in ``__all__`` is read by ``import *``, and a
    submodule a package's ``__init__`` imports is read as its attribute."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif (isinstance(node, ast.ImportFrom) and node.module != "__future__"
              and not (path.name == "__init__.py" and node.module is None)):
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return {(path.name, name) for name in imported - read}


def test_no_module_imports_a_name_it_never_reads():
    unread = set().union(*map(unread_imports, sorted((SRC / "wavets").glob("*.py"))))
    assert unread == UNREAD_IMPORTS


WARNING_FILTERS = {"catch_warnings", "simplefilter", "filterwarnings", "resetwarnings"}


def warning_filter_uses(tree, scope: str = "") -> list[tuple[str, str]]:
    """``(enclosing function, name)`` for each use of a ``warnings``
    filter function under an AST node, as ``warnings.name`` or a bare name."""
    uses = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            uses += warning_filter_uses(node, f"{scope}.{node.name}".lstrip("."))
            continue
        name = (node.attr if isinstance(node, ast.Attribute) else
                node.id if isinstance(node, ast.Name) else
                None)
        if name in WARNING_FILTERS:
            uses.append((scope, name))
        uses += warning_filter_uses(node, scope)
    return uses


def test_only_the_command_line_decides_how_warnings_print():
    """Metrics return NaN for an undefined score, ``evaluate_dataset``
    reports it and ``cli.main`` prints it: no library code hides a
    warning, so a warning raised is a warning shown."""
    uses = {(path.name, scope, name) for path in sorted((SRC / "wavets").glob("*.py"))
            for scope, name in warning_filter_uses(ast.parse(path.read_text()))}
    assert uses == {("cli.py", "main", "catch_warnings"), ("cli.py", "main", "simplefilter")}
