"""Package-wide contracts: the public surface, NaN rejection at every check,
the modules the sources import and a cold import loads, and the README's
examples."""

import ast
import inspect
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import zipforder
from zipforder import (
    DomainError,
    RankedCounts,
    bounds,
    cli,
    corpus,
    errors,
    estimate,
    estimate_N_total,
    hurwitz_zeta,
    load_rank_counts,
    local_scale_estimates,
    poisson_lower_tail_bound,
    poisson_upper_tail_bound,
    simulate,
    skellam_order_bound,
    solve_zeta_equals,
    special,
    threshold_A,
    threshold_n_hat,
    threshold_n_prime,
)

NAN = math.nan

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
from ops import IMPORT_SPANS, parse_importtime  # noqa: E402


def test_public_names_are_the_module_declarations():
    """The package exports each module's ``__all__`` and the error classes, nothing else."""
    error_classes = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    }
    assert len(error_classes) == 5
    declared = {name: errors for name in error_classes}
    for module in (bounds, corpus, estimate, simulate, special):
        declared.update({name: module for name in module.__all__})
    public = {
        name for name, obj in vars(zipforder).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public == set(declared)
    for name, module in declared.items():
        assert getattr(zipforder, name) is getattr(module, name), name


_TABLE = RankedCounts(counts=(9.0, 5.0, 2.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: skellam_order_bound(NAN, 1.0),
        lambda: skellam_order_bound(2.0, NAN),
        lambda: poisson_upper_tail_bound(NAN, 5.0),
        lambda: poisson_upper_tail_bound(2.0, NAN),
        lambda: poisson_lower_tail_bound(NAN, 0.5),
        lambda: poisson_lower_tail_bound(2.0, NAN),
        lambda: threshold_A(NAN),
        lambda: threshold_n_prime(NAN, 1.5),
        lambda: threshold_n_prime(1e7, NAN),
        lambda: threshold_n_hat(NAN, 1.5),
        lambda: threshold_n_hat(1e7, NAN),
        lambda: estimate_N_total(NAN, 1.5, 0.0),
        lambda: estimate_N_total(1e7, NAN, 0.0),
        lambda: estimate_N_total(1e7, 1.5, NAN),
        lambda: local_scale_estimates(_TABLE, NAN, 1, 2),
        lambda: hurwitz_zeta(NAN, 1.0),
        lambda: hurwitz_zeta(2.0, NAN),
        lambda: solve_zeta_equals(NAN),
    ],
)
def test_nan_argument_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: threshold_A(1.0),
        lambda: threshold_n_prime(1e7, 1.0),
        lambda: local_scale_estimates(_TABLE, 1.0, 1, 2),
        lambda: estimate_N_total(1e7, 1.0, 0.0),
        lambda: estimate_N_total(1e7, 1.0, 2.5),
    ],
    ids=["threshold_A", "threshold_n_prime", "local_scale_estimates", "estimate_N_total",
         "estimate_N_total-shifted"],
)
def test_alpha_one_is_refused_by_the_law(call):
    """alpha = 1 lies just outside the law's domain, and each function of the
    law refuses it with the law's own message, not zeta's."""
    with pytest.raises(DomainError, match=r"^alpha must be finite and > 1, got 1\.0$"):
        call()


@pytest.mark.parametrize("message", ["alpha must be finite and > 1", "k must be finite and >= 0"])
def test_law_domain_is_stated_once(message):
    """The law's domain has one check (``bounds._check_law``): each of its
    messages is written once in the package's sources."""
    sources = sorted(Path(zipforder.__file__).parent.glob("*.py"))
    assert sources
    assert sum(path.read_text(encoding="utf-8").count(message) for path in sources) == 1


def _imported_modules(path):
    """Module names a source file imports, a relative one with its leading dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


def test_bounds_imports_only_math_from_outside():
    """The bounds need only Python's ``math`` (README): besides the
    package's errors, ``bounds`` imports only these standard modules."""
    assert _imported_modules(Path(bounds.__file__)) == {
        "__future__", "bisect", "math", "dataclasses", "typing", ".errors",
    }


def test_no_module_imports_warnings():
    """Conditions a run meets are report fields or typed errors, never
    Python warnings: no module of the package imports ``warnings``."""
    sources = sorted(Path(zipforder.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        roots = {name.lstrip(".").split(".")[0] for name in _imported_modules(path)}
        assert "warnings" not in roots, path.name


def test_third_party_imports_stay_in_one_module_each():
    """numpy is imported only by ``simulate`` and scipy only by ``special``,
    so moving or dropping either import touches one module."""
    sources = sorted(Path(zipforder.__file__).parent.glob("*.py"))
    assert sources
    importers = {"numpy": set(), "scipy": set()}
    for path in sources:
        for root in {name.split(".")[0] for name in _imported_modules(path)} & importers.keys():
            importers[root].add(path.name)
    assert importers["numpy"] <= {"simulate.py"}
    assert importers["scipy"] <= {"special.py"}


def test_report_text_stays_in_one_module():
    """``_text`` alone makes report text: it imports only the standard
    library, no other module imports ``json``, and ``cli`` takes no private
    name from ``corpus``."""
    package = Path(zipforder.__file__).parent
    text_roots = {name.split(".")[0] for name in _imported_modules(package / "_text.py")}
    assert text_roots <= sys.stdlib_module_names
    for path in sorted(package.glob("*.py")):
        if path.name != "_text.py":
            assert "json" not in {name.split(".")[0] for name in _imported_modules(path)}, path.name
    from_corpus = {
        alias.name
        for node in ast.walk(ast.parse((package / "cli.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "corpus"
        for alias in node.names
    }
    assert from_corpus and not {name for name in from_corpus if name.startswith("_")}


def _scoped_nodes(node, scope=()):
    """Each node under ``node`` with the names of the functions and classes
    around it."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = (*scope, child.name)
        yield inner, child
        yield from _scoped_nodes(child, inner)


def _namers(path, name):
    """The functions of a source file, as ``module.function``, that name
    ``name``: as a variable, an attribute (as in ``io.open``) or a string."""
    return {
        ".".join([path.stem, *scope])
        for scope, node in _scoped_nodes(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.Constant) and node.value == name)
    }


def test_one_writer_opens_every_output():
    """``cli._emit`` writes every output, with ``-`` as stdout, and
    ``corpus.load_rank_counts`` reads every table: no other code of the
    package opens a file."""
    sources = sorted(Path(zipforder.__file__).parent.glob("*.py"))
    assert sources
    users = set().union(*(_namers(path, "open") for path in sources))
    assert users == {"cli._emit", "corpus.load_rank_counts"}


def test_one_decoder_reads_every_table_byte():
    """``corpus.load_rank_counts`` alone states how table bytes are decoded
    (``TextIOWrapper`` with ``surrogateescape``), ``corpus._utf8_lines``
    alone checks decoded text as UTF-8 (``.encode``), and ``cli`` reads
    stdin only through its ``.buffer``, so stdin's bytes are decoded as a
    file's."""
    package = Path(zipforder.__file__).parent
    sources = sorted(package.glob("*.py"))
    for name, namers in [("TextIOWrapper", {"corpus.load_rank_counts"}),
                         ("surrogateescape", {"corpus.load_rank_counts"}),
                         ("encode", {"corpus._utf8_lines"})]:
        assert set().union(*(_namers(path, name) for path in sources)) == namers, name
    tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    stdin = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and node.attr == "stdin" and isinstance(node.value, ast.Name) and node.value.id == "sys"]
    assert stdin
    for node in stdin:
        parent = parents[node]
        assert isinstance(parent, ast.Attribute) and parent.attr == "buffer", ast.unparse(parent)


def test_one_table_format_default():
    """The loader and ``analyze --input-format`` default to ``corpus.DEFAULT_FORMAT``."""
    default = inspect.signature(load_rank_counts).parameters["fmt"].default
    assert default is corpus.DEFAULT_FORMAT == "auto"
    args = cli._build_parser().parse_args(["analyze", "--input", "-", "--alpha", "1.5"])
    assert args.input_format is corpus.DEFAULT_FORMAT


def test_import_reports_every_traced_span():
    """A cold ``import zipforder`` imports each module the traced benchmark times.

    A traced benchmark run reports its per-layer metrics only when each of
    them has a sample, and the import spans get one only from this import.
    The benchmark change that drops scipy for one root-finder retires this
    test together with the spans it times.
    """
    path = [str(Path(zipforder.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import zipforder"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    spans = {span for span, _seconds, _parent in parse_importtime(proc.stderr)}
    assert spans == set(IMPORT_SPANS.values())


def test_readme_python_blocks_run(capsys):
    """Each ``python`` block of README.md runs in a fresh namespace, and a
    number commented on a ``print`` line is what that line prints, rounded
    to the digits shown."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "__readme__"})
        printed = capsys.readouterr().out.splitlines()
        prints = [line for line in block.splitlines() if line.startswith("print(")]
        assert len(printed) == len(prints)
        for line, out in zip(prints, printed):
            shown = re.search(r"#\s*([-+.\de]+)\s*$", line)
            if shown:
                digits = len(shown[1].lstrip("0.").replace(".", ""))
                assert format(float(out), f".{digits}g") == shown[1], line
