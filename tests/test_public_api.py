"""The public surface: every exported name resolves, none is listed twice,
and the telemetry bus stands on its own below the cluster layer."""

from __future__ import annotations

import ast
import importlib
import inspect
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
    with pytest.raises(TypeError):
        repro.PSRSConfig(root=0)

    for module in ("repro.analysis", "repro.analysis.sanitizers"):
        assert not hasattr(importlib.import_module(module), "SanitizerConfig")
    assert "SanitizerConfig" not in repro.analysis.__all__
    for module in ("repro.workloads", "repro.workloads.records"):
        assert not hasattr(importlib.import_module(module), "checksum")
    assert "checksum" not in repro.workloads.__all__

    for name in ("with_link", "with_packet_bytes", "with_memory"):
        assert not hasattr(repro.ClusterSpec, name)
    for name in ("cluster_spec", "link"):
        assert not hasattr(repro.obs.profiler.HardwareMeta, name)
    for name in ("FAST_DISK", "SCSI_1999"):
        assert not hasattr(importlib.import_module("repro.pdm.disk"), name)
    with pytest.raises(TypeError):
        repro.paper_cluster(packet_bytes=1024)
    with pytest.raises(TypeError):
        repro.heterogeneous_cluster([1.0], packet_bytes=1024)
    with pytest.raises(TypeError):
        repro.homogeneous_cluster(2, link=repro.FAST_ETHERNET)

    retired = {
        "repro.core.quantiles": ["global_count_leq"],
        "repro.core.theory": ["ideal_speedup", "ideal_speedup_vs_fastest"],
        "repro.core.sampling": ["sample_interval", "regular_sample_positions"],
        "repro.extsort.losertree": ["merge_iterables"],
        "repro.faults.plan": ["expand_faults"],
        "repro.fuzz.executor": ["STATUSES"],
        "repro.metrics.timing": ["repeat_trials", "collect_trials"],
        "repro.workloads.records": ["key_dtype"],
    }
    for module, names in retired.items():
        package = module.rsplit(".", 1)[0]
        for name in names:
            for where in (module, package, "repro"):
                assert not hasattr(importlib.import_module(where), name), (where, name)
                assert name not in getattr(importlib.import_module(where), "__all__", ())
    members = [
        ("repro.extsort.losertree", "LoserTree", ["winner_key", "replace_winner"]),
        ("repro.extsort.multiway", "RunRef", ["length"]),
        ("repro.extsort.multiway", "RunCursor", ["take_leq", "buffer_max"]),
        ("repro.faults.plan", "FaultPlan", ["save"]),
        ("repro.pdm.memory", "MemoryManager", ["unlimited"]),
        ("repro.pdm.model", "PDMConfig",
         ["is_out_of_core", "satisfies_practical_constraint", "merge_order"]),
        ("repro.core.perf", "PerfVector", ["is_homogeneous"]),
    ]
    for module, cls, names in members:
        for name in names:
            assert not hasattr(getattr(importlib.import_module(module), cls), name), (cls, name)
    parameters = [
        ("repro.extsort.distribution", "distribution_sort", "fanout"),
        ("repro.core.perf", "PerfVector.from_speeds", "max_value"),
        ("repro.core.partition", "materialize_partitions", "name_prefix"),
        ("repro.metrics.report", "fault_table", "title"),
    ]
    for module, qualname, name in parameters:
        obj = importlib.import_module(module)
        for attr in qualname.split("."):
            obj = getattr(obj, attr)
        assert name not in inspect.signature(obj).parameters, (qualname, name)


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
