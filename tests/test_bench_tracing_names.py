"""`bench/run.py --trace 1` wraps package functions by name: every name must exist.

The tracer's tables are read from bench/tracing.py itself, so deleting or
renaming a traced function fails here instead of in a traced benchmark run.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from finslerlab import cli, expr, volume
from finslerlab.geometry import MetricSpec
from finslerlab.jets import Jet3

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_exists(tracing):
    for mod, names in tracing.SPANS.items():
        module = importlib.import_module(f"finslerlab.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"finslerlab.{mod}.{name}"


def test_every_traced_leaf_exists(tracing):
    for name in tracing.JET_OPS:
        assert callable(Jet3.__dict__.get(name)), f"Jet3.{name}"
    for name in tracing.EXPR_LEAVES:
        assert callable(getattr(expr, name, None)), f"finslerlab.expr.{name}"


_INSTALL = """
import importlib.util
spec = importlib.util.spec_from_file_location("bench_tracing", {path!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracing.Tracer().install()
"""


def test_the_tracer_installs_on_this_source():
    # install() checks that no module, class or module-level table still binds an
    # unwrapped function (a Jet3 method kept in a dict, say); a fresh process
    # imports the package from this checkout's src as bench/run.py does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _INSTALL.format(path=str(TRACING))],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_node_jet_cache_counters_exist():
    # bench/run.py reads volume.node_jets_hit_ratio from _node_jets.cache_info()
    from finslerlab import volume

    info = volume._node_jets.cache_info()
    assert info.maxsize == 2 and info.hits >= 0 and info.misses >= 0


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.stem)
def test_bundled_configs_load_as_the_bench_reads_them(path):
    # bench/workloads._spec reads cli.build_spec(cli.load_config(p)) and the loaded .volume
    loaded = cli.load_config(str(path))
    assert isinstance(cli.build_spec(loaded), MetricSpec)
    assert loaded.volume in (volume.BH, volume.HT, volume.CONSTANT)
