"""What importing the package loads, and the names the benchmark's tracer
hooks: every hook must resolve, and a function re-bound into ``smjp.cli``
or ``smjp.analysis`` must be the very function its layer name points to,
or a hook would time a copy its caller never calls. Also that every fit
knob is read by the package, every optional parameter of a public
function is set by the package or the benchmark, and every error class is
told apart by something."""

import ast
import importlib
import importlib.util
import inspect
import itertools
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import smjp
from smjp.cli import EXIT_CODES, RunConfig
from smjp.switching import FitConfig

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.HOOKS


def resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_readme_entry_points_resolve_in_the_package():
    # The function column of README's "Key entry points" table, the rows
    # after its header and separator lines.
    lines = (ROOT / "README.md").read_text().split("| area | functions |\n")[1].splitlines()[1:]
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines)
    names = [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[2])]
    assert len(names) > 30
    assert [n for n in names if n not in smjp.__all__ or not callable(getattr(smjp, n, None))] == []


def test_import_leaves_scipy_stats_unloaded():
    src = str(Path(smjp.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, smjp, smjp.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("module_name, attr, layer", [h[:3] for h in load_hooks()])
def test_tracer_hook_resolves_to_what_its_caller_calls(module_name, attr, layer):
    hooked = resolve(module_name, attr)
    assert callable(hooked)
    home = "smjp." + layer.split(".")[0]
    if module_name in ("smjp.cli", "smjp.analysis") and home != module_name:
        assert hooked is resolve(home, attr)


# eval_grids is read by nothing but stays accepted: perfbench/design.json
# passes it to FitConfig(**spec), so it leaves with the next benchmark
# change (ROADMAP item 2).
UNREAD_FIT_FIELDS = {"eval_grids"}


def test_every_fit_knob_is_read_outside_its_class():
    read = set()
    for path in (ROOT / "src" / "smjp").glob("*.py"):
        tree = ast.parse(path.read_text())
        own = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) and cls.name == "FitConfig" for node in ast.walk(cls)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in own}
    names = {f.name for f in fields(FitConfig)}
    assert sorted(names - read) == sorted(UNREAD_FIT_FIELDS)


def callee_name(node):
    """The name a call target or a passed function goes by: ``f`` or ``mod.f``."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def calls_by_name(paths):
    """name -> (positional count, keyword names) of every call of it in the
    files: direct calls, and calls through a runner that takes the
    function first and its arguments after it, ``op(label, fn, *args,
    **kwargs)``."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            keywords = {kw.arg for kw in node.keywords}
            calls.setdefault(callee_name(node.func), []).append((len(node.args), keywords))
            for i, arg in enumerate(node.args):
                calls.setdefault(callee_name(arg), []).append((len(node.args) - i - 1, keywords))
    return calls


# Set through cli._text(save_model, model, metadata), which puts the file
# handle between the two, so the count of arguments after the function
# does not reach it.
SET_THROUGH_TEXT = ["save_model(metadata)"]


def test_every_optional_parameter_is_set_outside_the_tests():
    # An option that only tests set is a knob with no user: it goes, or a
    # caller in the package or the benchmark starts setting it.
    paths = [*(ROOT / "src" / "smjp").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    calls = calls_by_name(p for p in paths if not p.name.startswith("test_"))
    unset = []
    for name in smjp.__all__:
        fn = getattr(smjp, name)
        if not inspect.isfunction(fn):
            continue
        for pos, param in enumerate(inspect.signature(fn).parameters.values()):
            if param.default is inspect.Parameter.empty:
                continue
            by_position = param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            sets = [param.name in keywords or (by_position and n_args > pos) for n_args, keywords in calls.get(name, [])]
            if not any(sets):
                unset.append(f"{name}({param.name})")
    assert unset == SET_THROUGH_TEXT


@pytest.mark.parametrize("field, fn, param", [
    ("m_bins", smjp.build_belief_mdp, "m_bins"),
    ("m_bins", smjp.solve_belief_mdp, "m_bins"),
    ("diffusion_eps", smjp.build_belief_mdp, "diffusion_eps"),
    ("diffusion_eps", smjp.solve_belief_mdp, "diffusion_eps"),
    ("cocluster_restarts", smjp.cocluster, "restarts"),
    ("cocluster_restarts", smjp.select_cocluster_sizes, "restarts"),
    ("operator_threshold", smjp.extract_subgraphs, "threshold"),
    ("persistence_frac", smjp.extract_subgraphs, "persistence_frac"),
])
def test_run_config_default_is_the_library_default(field, fn, param):
    assert getattr(RunConfig, field) == inspect.signature(fn).parameters[param].default


def exception_names(node):
    """The class names an ``except`` clause's type names: ``E``, ``mod.E`` or a tuple of them."""
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    return {callee_name(n) for n in nodes}


def test_every_error_class_is_told_apart():
    # A class earns its place by choosing an exit code, being caught by
    # name, or carrying its own data; any other subclass is its base under
    # another name.
    trees = [ast.parse(path.read_text()) for path in (ROOT / "src" / "smjp").glob("*.py")]
    classes = {node.name: node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    errors = {"SmjpError"}
    while new := {name for name, node in classes.items()
                  if name not in errors and any(callee_name(base) in errors for base in node.bases)}:
        errors |= new
    told = {kind.__name__ for kinds, _ in EXIT_CODES for kind in (kinds if isinstance(kinds, tuple) else (kinds,))}
    told |= {name for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.ExceptHandler) and node.type is not None for name in exception_names(node.type)}
    told |= {name for name in errors
             if any(isinstance(item, ast.FunctionDef) and item.name == "__init__" for item in classes[name].body)}
    assert len(errors) > 1
    assert sorted(errors - told) == []
