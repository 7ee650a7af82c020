"""Reporting helpers for the bench suite.

The scale model every paper table runs at is one set of constants in
:mod:`repro.experiments`; the benches import them from there.
"""

from __future__ import annotations

import os


def write_result(name: str, text: str) -> None:
    """Print a regenerated table and persist it under benchmarks/results/."""
    results = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print()
    print(text)


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def record_with_guard(path: str, summary: dict, regression_factor: float = 1.2) -> dict:
    """Fold one CLI JSON summary into the keyed artifact, guarding perf.

    Tracks the best (smallest) simulated ``elapsed_seconds`` ever
    recorded for the configuration in a ``best_elapsed_seconds`` field —
    together with that run's per-step times as ``best_step_seconds``, so
    ``repro bench report`` can blame the step that moved — and raises
    when a new run regresses more than ``regression_factor`` over it.
    A model change that slows a pinned configuration by >20% must be a
    conscious edit of ``BENCH_sort.json``, not silent drift.  Returns
    the written document.
    """
    from repro.metrics.bench import append_run, get_run, load_bench, run_key

    key = run_key(summary)
    elapsed = float(summary["elapsed_seconds"])
    best = elapsed
    best_steps = dict(summary.get("step_seconds", {}))
    prior = get_run(load_bench(path), key)
    if prior is not None:
        prior_best = float(
            prior.get("best_elapsed_seconds", prior.get("elapsed_seconds", elapsed))
        )
        if prior_best <= elapsed:
            best = prior_best
            best_steps = dict(
                prior.get("best_step_seconds", prior.get("step_seconds", best_steps))
            )
        if elapsed > regression_factor * prior_best:
            raise AssertionError(
                f"{key}: elapsed {elapsed:.3f}s regressed more than "
                f"{regression_factor:g}x over best recorded {prior_best:.3f}s"
            )
    return append_run(
        path,
        {**summary, "best_elapsed_seconds": best, "best_step_seconds": best_steps},
    )
