"""The public surface: every exported name resolves, none is listed twice,
and the telemetry bus stands on its own below the cluster layer."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PACKAGES = sorted(
    ["repro"]
    + [
        m.name
        for m in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if m.ispkg
    ]
)


def test_every_package_is_checked():
    assert {"repro.cluster", "repro.core", "repro.extsort", "repro.obs",
            "repro.obs.profiler", "repro.analysis.cost"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_resolves_and_lists_no_name_twice(package):
    module = importlib.import_module(package)
    exported = list(module.__all__)
    assert exported, f"{package} exports nothing"
    assert [n for n, c in Counter(exported).items() if c > 1] == []
    assert [n for n in exported if not hasattr(module, n)] == []


def test_retired_names_are_gone_not_aliased():
    import repro.cluster
    import repro.core.incore
    import repro.obs.profiler
    import repro.obs.profiler.replay

    for name in ("Op", "extract_ops"):
        assert name not in repro.obs.profiler.__all__
        assert not hasattr(repro.obs.profiler, name)
        assert not hasattr(repro.obs.profiler.replay, name)
    assert not hasattr(repro.obs.profiler.RunProfile, "ops")

    assert not hasattr(repro.cluster, "Trace") and "Trace" not in repro.cluster.__all__
    assert not hasattr(repro.cluster.Cluster, "trace")
    assert not hasattr(repro.obs.bus.TelemetryBus, "trace")
    assert not hasattr(repro.core.incore, "files_to_array")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.cluster.trace")
    with pytest.raises(TypeError):
        repro.PSRSConfig(engine="vector")
    with pytest.raises(TypeError):
        repro.DeWittConfig(engine="vector")


def test_the_bus_imports_nothing_from_the_cluster_layer():
    """``repro.obs.bus`` is below ``repro.cluster`` (a cluster owns a bus,
    never the reverse).  ``import repro`` loads every layer, so the
    subprocess imports the module under a bare ``repro`` namespace."""
    code = (
        "import importlib, sys, types\n"
        "pkg = types.ModuleType('repro')\n"
        f"pkg.__path__ = [{str(SRC / 'repro')!r}]\n"
        "sys.modules['repro'] = pkg\n"
        "importlib.import_module('repro.obs.bus')\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    loaded = ast.literal_eval(out)
    assert "repro.obs.bus" in loaded and "repro.obs.events" in loaded
    assert [m for m in loaded if m.startswith("repro.cluster")] == []
