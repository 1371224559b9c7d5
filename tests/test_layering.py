"""Module layering, read from the import statements of the package and tests.

``bgwr.suffstats`` holds the dataset and its per-location sufficient
statistics and sits below every model: it imports no other bgwr module, and
the frequentist fit and the assessment take the statistics from it rather
than from the sampler.  It also owns the one packed layout of kernel-weighted
statistics, which the sampler and the frequentist fit both weigh.
``import bgwr`` loads numpy and the standard library only.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "bgwr").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def imported(path):
    """(module, name) for each import in a file, with the module made
    absolute; name is None for ``import module``."""
    package = "bgwr" if path.parent.name == "bgwr" else ""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = ".".join(filter(None, (package, module)))
            out += [(module, alias.name) for alias in node.names]
    return out


def bgwr_modules(path):
    """Every bgwr module a file imports, as dotted names."""
    found = set()
    for module, name in imported(path):
        if module == "bgwr" and name is not None:
            found.add(f"bgwr.{name}")
        elif module.split(".")[0] == "bgwr":
            found.add(module)
    return found


def source(name):
    return ROOT / "src" / "bgwr" / f"{name}.py"


def test_suffstats_imports_no_bgwr_module():
    assert bgwr_modules(source("suffstats")) == set()


def test_freq_gwr_and_assessment_do_not_import_the_sampler():
    for name in ("freq_gwr", "assessment"):
        assert "bgwr.bayes_gwr" not in bgwr_modules(source(name)), name


def test_no_file_takes_dataset_from_freq_gwr():
    offenders = []
    for path in SOURCES:
        if ("bgwr.freq_gwr", "Dataset") in imported(path):
            offenders.append(path.name)
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "Dataset"
                    and isinstance(node.value, ast.Name) and node.value.id == "freq_gwr"):
                offenders.append(path.name)
    assert offenders == []


def identifiers(path):
    """Every name, attribute and definition name in a file."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
    return out


def test_one_packed_layout_of_weighted_statistics():
    packing = [path.name for path in sorted((ROOT / "src" / "bgwr").glob("*.py"))
               if "triu_indices" in identifiers(path)]
    assert packing == ["suffstats.py"]
    for name in ("bayes_gwr", "freq_gwr"):
        for function in ("packed_stats", "unpack"):
            assert ("bgwr.suffstats", function) in imported(source(name)), (name, function)
    assert [path.name for path in SOURCES if "weighted_blocks" in identifiers(path)] == []


def test_import_loads_no_third_party_package_but_numpy():
    # every run of the CLI pays for this import, compiled afresh when
    # bytecode is not written, so a heavy dependency must not slip in
    code = ("import sys; before = set(sys.modules); import bgwr; "
            "print(*{m.partition('.')[0] for m in set(sys.modules) - before})")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert set(loaded) - set(sys.stdlib_module_names) - {"bgwr"} == {"numpy"}


def test_cli_writes_through_dataio():
    # every output file goes through dataio's writers or DistanceMatrix.to_csv
    calls = [node for node in ast.walk(ast.parse(source("cli").read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "open"]
    assert calls == []


def test_no_pool_era_or_tracker_copies():
    for path in sorted((ROOT / "src" / "bgwr").glob("*.py")):
        assert identifiers(path) & {"_OutputTracker", "one_replicate"} == set(), path.name


def test_kernel_choices_are_the_weighting_kernels():
    from bgwr.cli import build_parser
    from bgwr.weighting import KERNELS

    assert ("bgwr.weighting", "KERNELS") in imported(source("cli"))
    commands = build_parser()._subparsers._group_actions[0].choices
    for name, parser in commands.items():
        kernel = next(a for a in parser._actions if a.dest == "kernel")
        assert tuple(kernel.choices) == KERNELS, name
