"""What importing the package loads, and the names the benchmark's tracer
hooks: every hook must resolve, and a function re-bound into ``smjp.cli``
or ``smjp.analysis`` must be the very function its layer name points to,
or a hook would time a copy its caller never calls."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smjp

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
