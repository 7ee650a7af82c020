"""One workload, measured in one fresh process.

``run.py`` starts this module once per workload (and a few more times
with ``--setup-only`` to sample set-up time), so ``peak_rss_mb`` and
``setup_s`` belong to that workload alone.  The result document goes to
standard output as one JSON line.

Closed loop, one operation in flight, one thread: set-up, then timed
repetitions until ``seconds`` are used (a fresh cluster per repetition,
built outside the clock; output checked after the clock stops), then one
untimed extra repetition (the audit), then — with tracing on — one traced
repetition and the micro-runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time

from . import contract

#: Fewest timed repetitions, however short the run.
MIN_REPS = 3

#: With tracing on the run also pays for a traced repetition and the
#: micro-runs, so the untraced repetitions get this share of ``seconds``.
TRACED_SHARE = 1 / 3

#: The two context managers whose spans are labelled ``<owner>[<step>]``.
_STEP_SPAN_OWNERS = ("Cluster.step", "ClusterView.step")


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    scale: int = 1,
    setup_only: bool = False,
    entered: float | None = None,
) -> dict:
    """Measure workload ``name``; returns its result document."""
    entered = time.perf_counter() if entered is None else entered
    # Imported here, not at module top, so that a worker's setup_s covers
    # `import repro` and numpy.
    from . import workloads

    workload = workloads.WORKLOADS[name]
    contract.OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"tmp-{name}-", dir=contract.OUT_DIR)
    try:
        state = workload.setup(seed, scale, tmp)
        ctx = workload.fresh(state)
        setup_s = time.perf_counter() - entered
        if setup_only:
            return {"workload": name, "setup_s": setup_s}
        return _measure(workload, state, ctx, seed, seconds, traced, setup_s, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _measure(workload, state, ctx, seed, seconds, traced, setup_s, tmp) -> dict:
    from . import reference

    budget = seconds * TRACED_SHARE if traced else seconds
    host_s: list[float] = []
    calibrated_s: list[float] = []
    readings = []
    failures: list[str] = []
    attempted = reps = 0
    began = time.perf_counter()
    ref_after = reference.reference_s()
    while True:
        rep_began = time.perf_counter()
        ref_before = ref_after
        if ctx is None:
            ctx = workload.fresh(state)
        gc.collect()
        try:
            t0 = time.perf_counter()
            out = workload.operate(state, ctx)
            elapsed = time.perf_counter() - t0
            ref_after = reference.reference_s()
            reading = workload.check(state, ctx, out)
        except Exception as exc:  # a failed operation is a result, not a crash
            attempted += 1
            failures.append(f"{workload.name}: {type(exc).__name__}: {exc}")
        else:
            host_s.append(elapsed)
            calibrated_s.append(
                elapsed * reference.NOMINAL_S / ((ref_before + ref_after) / 2)
            )
            readings.append(reading)
            attempted += reading.attempted
            failures.extend(reading.failures)
        ctx = out = None
        reps += 1
        now = time.perf_counter()
        # Stop when the next repetition would not fit into the budget.
        if reps >= MIN_REPS and (now - began) + (now - rep_began) > budget:
            break
    if not readings:
        raise RuntimeError(f"{workload.name}: no repetition completed: {failures}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = readings[0]
    if any(r.sim != first.sim or r.layers != first.layers for r in readings[1:]):
        failures.append(f"{workload.name}: simulated metrics differ between repetitions")
    sim, layers = dict(first.sim), dict(first.layers)
    extra = workload.extra(state)
    if extra is not None:
        attempted += extra.attempted
        failures.extend(extra.failures)
        if any(sim[k] != v for k, v in extra.sim.items() if k in sim):
            failures.append(f"{workload.name}: simulated metrics differ in the extra repetition")
        sim.update(extra.sim)
        layers.update(extra.layers)

    median = statistics.median(host_s)
    end_to_end = {
        "items_per_host_s": first.items / statistics.median(calibrated_s),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        **sim,
    }
    per_layer = {
        "run.host_s_median": median,
        "run.host_s_min": min(host_s),
        "run.host_s_max": max(host_s),
        "run.host_s_spread": (max(host_s) - min(host_s)) / median,
        "run.samples": len(host_s),
        "run.host_speed": statistics.median(c / h for c, h in zip(calibrated_s, host_s)),
        **layers,
    }
    if traced:
        per_layer.update(
            _traced_pass(workload, state, seed, statistics.median(calibrated_s), failures)
        )
        per_layer.update(_np_sort_floor(workload, state, median))
        from . import micro

        per_layer.update(micro.run_all(tmp))
        attempted += 1
    failed = min(len(failures), attempted)
    return {
        "workload": workload.name,
        "seed": seed,
        "parameters": workload.describe(),
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": failures,
        "samples": {"host_s": host_s, "calibrated_s": calibrated_s},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def _traced_pass(workload, state, seed, untraced_calibrated_s, failures) -> dict:
    """One more repetition under ``trace.Tracer``; returns the (T) metrics."""
    from . import reference, trace, workloads

    tracer = trace.Tracer()
    tracer.install()
    try:
        with tracer.span("generate"):
            workload.generate(state)
        ctx = workload.fresh(state)
        ref_before = reference.reference_s()
        with tracer.span("operation"):
            out = workload.operate(state, ctx)
        speed = reference.NOMINAL_S / ((ref_before + reference.reference_s()) / 2)
        with tracer.span("check"):
            reading = workload.check(state, ctx, out)
    finally:
        tracer.uninstall()
    failures.extend(reading.failures)
    tracer.dump(
        str(contract.OUT_DIR / f"trace-{workload.name}.json"),
        {"workload": workload.name, "seed": seed},
    )
    whole = tracer.summary()
    op = tracer.summary("operation")
    total, count, layer = op["label_total_s"], op["label_count"], op["layer_self_s"]
    self_s = op["label_self_s"]

    def total_of(*labels: str) -> float:
        return sum(total.get(label, 0.0) for label in labels)

    def count_of(*labels: str) -> int:
        return sum(count.get(label, 0) for label in labels)

    out = {f"{name}.self_s": layer.get(name, 0.0) for name in ("pdm", "extsort", "core", "cluster", "obs", "faults")}
    out["fuzz.executor_self_s"] = layer.get("fuzz", 0.0)
    # numpy is no layer, so its time is the self time of the span that calls
    # it: np.sort of a memory load in form_runs, the block-frontier merge in
    # kway_merge_sorted; the interpreter-level loop is merge_cursors.
    out["extsort.form_runs_self_s"] = self_s.get("form_runs", 0.0)
    out["extsort.merge_kernel_self_s"] = self_s.get("kway_merge_sorted", 0.0)
    out["extsort.merge_loop_self_s"] = self_s.get("merge_cursors", 0.0) + self_s.get("merge_runs", 0.0)
    out["workloads.generate_s"] = whole["label_total_s"].get("make_benchmark", 0.0)
    out["workloads.verify_s"] = whole["label_total_s"].get("verify_sorted_permutation", 0.0)
    out["pdm.block_ios"] = count_of("SimDisk.charge_read", "SimDisk.charge_write")
    out["cluster.kernel_io_calls"] = count_of("EventKernel.on_io", "LockstepKernel.on_io")
    out["cluster.net_messages"] = count_of("Network.transfer")
    out["core.sample_items"] = sum(tracer.measured.values())
    for i, step in enumerate(workloads.STEPS, 1):
        out[f"core.step{i}_host_s"] = total_of(*(f"{o}[{step}]" for o in _STEP_SPAN_OWNERS))
    out["obs.audit_s"] = total_of("audit_run")
    out["obs.profile_s"] = total_of("RunProfile.from_cluster")
    out["obs.export_jsonl_s"] = total_of("write_jsonl")
    out["obs.export_chrome_s"] = total_of("write_chrome_trace")
    out["trace.operation_s"] = total["operation"]
    out["trace.spans"] = op["spans"]
    out["trace.overhead_ratio"] = total["operation"] * speed / untraced_calibrated_s
    return out


def _np_sort_floor(workload, state, median_host_s) -> dict:
    """In-core ``np.sort`` of the same arrays: the floor the simulation tax
    is stated against."""
    import numpy as np

    from .micro import median_s

    arrays = workload.generate(state)
    floor = median_s(lambda: [np.sort(a) for a in arrays])
    return {
        "workloads.np_sort_s": floor,
        "workloads.tax_vs_np_sort": median_host_s / floor,
    }


def main(argv=None) -> int:
    entered = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    doc = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        scale=args.scale,
        setup_only=args.setup_only,
        entered=entered,
    )
    sys.stdout.flush()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
