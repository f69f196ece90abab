"""The package's public surface: every name a module exports exists, and
the demos that need no flow run still run."""

import importlib.util
import os
import pkgutil
import subprocess
import sys

import pytest

import krflow

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(krflow.__path__)))
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"krflow.{name}")
    missing = [k for k in getattr(mod, "__all__", ()) if not hasattr(mod, k)]
    assert missing == []


# 03 (a singularity run, ~6 s) and 05 (a perturbed Cao-Koiso run, ~16 s)
# are left out: they would add tier-1 time for flow runs that
# test_flow.py already makes.
@pytest.mark.parametrize("script", ["01_solitons.py", "02_curvature_and_charts.py",
                                    "04_barriers_and_comparison.py"])
def test_demo_runs(tmp_path, script):
    # in an empty directory: 01 writes its profile CSVs into the cwd
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_finds_the_code_boundaries():
    # perfbench/tracer.py wraps functions by module attribute path; resolve
    # each path as it would, without installing it.  soliton.profile's only
    # boundary, flow.cao_koiso_profile, is gone since flow stopped importing it.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    mods = {m: importlib.import_module(f"krflow.{m}") for m in ("flow", "barriers", "analysis")}
    dead = [span for span, bounds in tracer.BOUNDARIES.items()
            if not any(tracer._resolve(mods[m], dotted) for m, dotted, _ in bounds)]
    assert dead in ([], ["soliton.profile"])
    unresolved = [key for key, (m, dotted) in tracer.COUNTS.items()
                  if tracer._resolve(mods[m], dotted) is None]
    assert "flow.rhs_calls" in tracer.COUNTS and unresolved == []
