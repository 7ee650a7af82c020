"""Command-line interface: ``python -m repro <command>``.

Commands
--------
sort        run the heterogeneous external PSRS sort once and report
calibrate   run the Table-2 perf-filling protocol on the paper cluster
table2      regenerate a (scaled) Table 2
table3      regenerate a (scaled) Table 3 comparison
sweep       the §5 message-size sweep
workloads   list the 8 input benchmarks
lint        simulation-invariant static analysis (REP001..REP008)
audit       replay a saved telemetry JSONL log through the bounds auditor
fuzz        coverage-guided scenario fuzzing with the auditor as oracle
profile     critical-path/blame profile of a saved run, with what-if predictions
bench       benchmark-artifact tools (report: regression check with blame)
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np


def _parse_perf(text: str):
    from repro.core.perf import PerfVector

    try:
        vals = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"perf must be comma-separated integers, got {text!r}"
        ) from None
    try:
        return PerfVector(vals)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Out-of-core PSRS sorting for heterogeneous clusters "
        "(Cérin, IPPS 2002) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sort = sub.add_parser("sort", help="run the external PSRS sort once")
    p_sort.add_argument("--n", type=int, default=2**16, help="input size (items)")
    p_sort.add_argument("--perf", type=_parse_perf, default=_parse_perf("4,4,1,1"))
    p_sort.add_argument("--memory", type=int, default=2048, help="per-node M (items)")
    p_sort.add_argument("--block", type=int, default=256, help="block size B (items)")
    p_sort.add_argument("--message", type=int, default=8192, help="message size (items)")
    p_sort.add_argument(
        "--pivot-method", choices=["regular", "random", "quantile"], default="regular"
    )
    p_sort.add_argument("--link", choices=["ethernet", "myrinet"], default="ethernet")
    p_sort.add_argument("--benchmark", default="0", help="workload id or name")
    p_sort.add_argument("--seed", type=int, default=0)
    p_sort.add_argument(
        "--spill-dir",
        default=None,
        help="spill every file to this host directory (true out-of-core)",
    )
    p_sort.add_argument(
        "--fault-plan",
        default=None,
        help="fault plan: path to a JSON file, or inline JSON "
        '(e.g. \'{"disk": [{"node": 1, "after_ios": 40}]}\')',
    )
    p_sort.add_argument(
        "--retries",
        type=int,
        default=None,
        help="max attempts per step for transient faults (enables retry)",
    )
    p_sort.add_argument(
        "--retry-backoff",
        type=float,
        default=0.05,
        help="base backoff seconds charged to the sim clock per retry",
    )
    p_sort.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome-trace/Perfetto JSON of the run "
        "(open in chrome://tracing or ui.perfetto.dev)",
    )
    p_sort.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="write the raw telemetry event stream as JSONL "
        "(replayable with 'repro audit')",
    )
    p_sort.add_argument(
        "--audit",
        action="store_true",
        help="check measured per-step I/O against the paper bounds "
        "(exit 1 on violation)",
    )
    p_sort.add_argument(
        "--profile",
        action="store_true",
        help="capture full telemetry and print the critical-path/blame "
        "profile with the summary",
    )
    p_sort.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="summary output format (json: one machine-readable object)",
    )
    p_sort.add_argument(
        "--kernel",
        choices=["event", "lockstep"],
        default="event",
        help="execution kernel: 'event' (overlap-aware per-node clocks) "
        "or 'lockstep' (legacy barrier-per-step BSP timing)",
    )

    p_cal = sub.add_parser("calibrate", help="Table-2 perf-filling protocol")
    p_cal.add_argument("--n", type=int, default=2**17, help="total input size")
    p_cal.add_argument("--memory", type=int, default=2048)
    p_cal.add_argument("--block", type=int, default=256)

    p_t2 = sub.add_parser("table2", help="regenerate Table 2 (scaled)")
    p_t2.add_argument("--sizes", default="16384,32768,65536")
    p_t2.add_argument("--memory", type=int, default=2048)
    p_t2.add_argument("--block", type=int, default=256)

    p_t3 = sub.add_parser("table3", help="regenerate the Table 3 comparison")
    p_t3.add_argument("--n", type=int, default=2**16)
    p_t3.add_argument("--memory", type=int, default=2048)
    p_t3.add_argument("--block", type=int, default=256)

    p_sw = sub.add_parser("sweep", help="message-size sweep (§5)")
    p_sw.add_argument("--n", type=int, default=2**14)
    p_sw.add_argument("--sizes", default="8,64,512,8192,32768")
    p_sw.add_argument("--memory", type=int, default=2048)
    p_sw.add_argument("--block", type=int, default=256)

    sub.add_parser("workloads", help="list the 8 input benchmarks")

    p_audit = sub.add_parser(
        "audit",
        help="replay a saved telemetry JSONL log through the bounds auditor",
        description="Reads a JSONL event log written by 'repro sort --events' "
        "(its run_meta line carries the run parameters) and re-checks every "
        "step's measured I/O against the paper bounds; exit 1 on violation.  "
        "--certify additionally checks measured I/O against the *statically "
        "derived* per-step bounds (repro lint --cost), closing the "
        "measured <= derived <= paper sandwich; --certify-corpus / "
        "--certify-bench certify a fuzz corpus or a BENCH_sort.json instead "
        "of a single log.",
    )
    p_audit.add_argument(
        "events_file",
        nargs="?",
        default=None,
        help="JSONL log from 'repro sort --events' (optional with "
        "--certify-corpus / --certify-bench)",
    )
    p_audit.add_argument(
        "--protocol",
        default=None,
        metavar="SCHEMA",
        help="also check trace conformance against a protocol schema JSON "
        "(from 'repro lint --protocol --emit-schema DIR')",
    )
    p_audit.add_argument(
        "--certify",
        action="store_true",
        help="also check measured I/O against the statically derived "
        "symbolic bounds (exit 1 if any step exceeds them)",
    )
    p_audit.add_argument(
        "--certify-corpus",
        default=None,
        metavar="DIR",
        help="replay every fuzz-corpus case in DIR and certify the "
        "fault-free ones against the static bounds",
    )
    p_audit.add_argument(
        "--certify-bench",
        default=None,
        metavar="FILE",
        help="certify every audited run recorded in a BENCH_sort.json",
    )
    p_audit.add_argument(
        "--format", choices=["text", "json"], default="text", help="report format"
    )

    p_fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided scenario fuzzing with the auditor as oracle",
        description="Mutates sort scenarios (workload, perf vector, PDM "
        "config, fault plan) from a novelty-scored corpus; every run is "
        "checked by the sanitizers, output verification and the paper-bounds "
        "auditor, and each distinct violation is shrunk to a minimal "
        "replayable JSONL case.  Exit 0 clean, 1 violations found.",
    )
    p_fuzz.add_argument("--seed", type=int, default=0, help="fuzz RNG seed")
    p_fuzz.add_argument(
        "--max-runs",
        type=int,
        default=None,
        metavar="N",
        help="stop after N mutated runs (deterministic mode; default 100 "
        "when no --time-budget is given)",
    )
    p_fuzz.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop after this much wall-clock time",
    )
    p_fuzz.add_argument(
        "--corpus-dir",
        default=None,
        metavar="DIR",
        help="load/save the corpus and write shrunk violation cases here",
    )
    p_fuzz.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="re-run one JSONL case file and check it still reproduces "
        "(exit 0 on match, 1 on mismatch)",
    )
    p_fuzz.add_argument(
        "--tighten-slack",
        type=float,
        default=None,
        metavar="X",
        help="audit with polyphase slack X instead of the calibrated "
        "default (1.0 = the ideal merge formula; used to plant violations)",
    )
    p_fuzz.add_argument(
        "--max-corpus", type=int, default=64, help="corpus size cap"
    )
    p_fuzz.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (json: the full machine-readable report)",
    )
    p_fuzz.add_argument(
        "--kernel",
        choices=["event", "lockstep"],
        default="event",
        help="execution kernel every scenario runs under (oracle verdicts "
        "are kernel-independent; see tests/test_differential_kernel.py)",
    )

    p_prof = sub.add_parser(
        "profile",
        help="critical-path/blame profile of a saved run",
        description="Reconstructs the happens-before timeline of a JSONL "
        "event log written by 'repro sort --events' (ideally with "
        "--profile for full capture), extracts the critical path and the "
        "per-(step, node) blame decomposition, and optionally predicts "
        "elapsed time under hypothetical hardware changes without "
        "re-running.",
    )
    p_prof.add_argument("events_file", help="JSONL log from 'repro sort --events'")
    p_prof.add_argument(
        "--what-if",
        action="append",
        default=None,
        metavar="SPEC",
        help="predict elapsed under a change, e.g. 'perf=1,1,8,8', "
        "'disks=4', 'net=myrinet', 'net.latency=1e-3', 'block=512'; "
        "clauses combine with ';', flag repeats",
    )
    p_prof.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome-trace JSON with the critical path "
        "highlighted on its own track",
    )
    p_prof.add_argument(
        "--format", choices=["text", "json"], default="text", help="report format"
    )

    p_bench = sub.add_parser(
        "bench", help="benchmark-artifact tools (see 'repro bench report')"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_brep = bench_sub.add_parser(
        "report",
        help="regression report over the keyed BENCH_sort.json artifact",
        description="Reads the keyed run list (repro-bench-sort/2) and "
        "compares each configuration's elapsed time against its best "
        "recorded; regressions beyond --factor are flagged with the step "
        "that moved most and that step's dominant blame component. "
        "Exit 1 when any configuration regressed.",
    )
    p_brep.add_argument(
        "bench_file",
        nargs="?",
        default="BENCH_sort.json",
        help="keyed benchmark artifact (default: BENCH_sort.json)",
    )
    p_brep.add_argument(
        "--factor",
        type=float,
        default=1.2,
        help="flag runs slower than FACTOR x their best recorded (default 1.2)",
    )
    p_brep.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="also write the JSON report here (CI artifact)",
    )
    p_brep.add_argument(
        "--format", choices=["text", "json"], default="text", help="report format"
    )

    from repro.analysis.cli import add_lint_arguments

    p_lint = sub.add_parser(
        "lint",
        help="simulation-invariant static analysis (REP001..REP008)",
        description="AST linter enforcing the cost-model invariants; "
        "exit 0 clean, 1 new findings, 2 internal error.",
    )
    add_lint_arguments(p_lint)
    return parser


def _load_fault_plan(text: str):
    """``--fault-plan`` accepts inline JSON or a path to a JSON file."""
    from repro.faults.plan import FaultPlan

    if text.lstrip().startswith("{"):
        return FaultPlan.from_json(text)
    return FaultPlan.load(text)


def cmd_sort(args) -> int:
    import json

    from repro.cluster.machine import Cluster, heterogeneous_cluster
    from repro.cluster.network import FAST_ETHERNET, MYRINET
    from repro.core.external_psrs import PSRSConfig, sort_array
    from repro.core.theory import max_duplicate_count
    from repro.faults.plan import RetryPolicy
    from repro.metrics.report import fault_table
    from repro.pdm.filestore import FileStore
    from repro.workloads.generators import make_benchmark
    from repro.workloads.records import verify_sorted_permutation

    perf = args.perf
    n = perf.nearest_exact(args.n)
    bench = int(args.benchmark) if args.benchmark.isdigit() else args.benchmark
    data = make_benchmark(bench, n, seed=args.seed)
    link = FAST_ETHERNET if args.link == "ethernet" else MYRINET
    cluster = Cluster(
        heterogeneous_cluster(
            [float(v) for v in perf.values], memory_items=args.memory, link=link
        ),
        kernel=args.kernel,
    )
    if args.events or args.profile:
        cluster.bus.set_level("full")
    elif args.trace or args.audit:
        cluster.bus.set_level("io")
    store = FileStore(args.spill_dir) if args.spill_dir else None
    if store is not None:
        for node in cluster.nodes:
            node.disk.file_factory = store.create
    plan = _load_fault_plan(args.fault_plan) if args.fault_plan else None
    retry = (
        RetryPolicy(max_attempts=args.retries, backoff=args.retry_backoff)
        if args.retries is not None
        else None
    )
    cfg = PSRSConfig(
        block_items=args.block,
        message_items=args.message,
        pivot_method=args.pivot_method,
        seed=args.seed,
    )
    res = sort_array(cluster, perf, data, cfg, faults=plan, retry=retry)
    # Profile before gathering: the event stream then ends exactly at the
    # final barrier, so the reconstructed elapsed matches res.elapsed.
    from repro.obs.profiler import RunProfile

    prof = RunProfile.from_cluster(cluster, block_items=args.block)
    verify_sorted_permutation(data, res.to_array())

    report = None
    if args.trace or args.events or args.audit:
        from repro.obs.audit import RunMeta, audit_run
        from repro.obs.exporters import write_chrome_trace, write_jsonl

        meta = RunMeta(
            n_items=res.n_items,
            perf=tuple(int(v) for v in perf.values),
            memory_items=args.memory,
            block_items=args.block,
            oversample=cfg.oversample,
            d_duplicates=max_duplicate_count(data),
            pivot_method=args.pivot_method,
        )
        if args.events:
            write_jsonl(
                args.events,
                cluster.bus.events,
                {**meta.to_dict(), "hw": prof.hw.to_dict()},
            )
        if args.trace:
            names = {node.rank: node.name for node in cluster.nodes}
            write_chrome_trace(
                args.trace,
                cluster.bus.events,
                names,
                critical=prof.critical.segments if args.profile else None,
            )
        if args.audit:
            report = audit_run(cluster.bus.events, meta)

    if args.format == "json":
        summary = {
            "command": "sort",
            "n_items": res.n_items,
            "perf": [int(v) for v in perf.values],
            "benchmark": str(args.benchmark),
            "pivot_method": args.pivot_method,
            "verified": True,
            "elapsed_seconds": res.elapsed,
            "s_max": res.s_max,
            "step_seconds": dict(res.step_times),
            # Wall-time analogue of the item-count skew s_max: per-step
            # max/mean of the nodes' recorded span lengths.
            "step_time_skew": {sb.step: sb.time_skew for sb in prof.blame.steps},
            "blame": prof.blame.to_dict(),
            "io": {
                "blocks_read": res.io.blocks_read,
                "blocks_written": res.io.blocks_written,
                "items_read": res.io.items_read,
                "items_written": res.io.items_written,
                "busy_seconds": res.io.busy_time,
                "labels": dict(res.io.labels),
            },
            "network": {
                "messages": res.network_messages,
                "bytes": res.network_bytes,
            },
            "degraded": res.faults.degraded,
            "faults": {
                "total": res.faults.total_faults,
                "retries": dict(res.faults.retries),
                "backoff_seconds": res.faults.backoff_time,
            },
        }
        if args.profile:
            summary["critical_path"] = prof.critical.to_dict()
        if report is not None:
            summary["audit"] = report.to_dict()
        print(json.dumps(summary, indent=2, sort_keys=False))
    else:
        print(f"sorted {res.n_items} items (verified) on perf={perf.values}")
        print(f"simulated time: {res.elapsed:.3f} s   S(max): {res.s_max:.4f}")
        for step, t in res.step_times.items():
            print(f"  {step:<18} {t:9.4f} s")
        if args.profile:
            print(_render_profile(prof))
        print(
            f"I/O blocks r/w: {res.io.blocks_read}/{res.io.blocks_written}   "
            f"network: {res.network_messages} msgs / {res.network_bytes} bytes"
        )
        if plan is not None or retry is not None:
            if res.faults.degraded:
                print(f"completed DEGRADED on survivors {res.active_ranks}")
            print(fault_table(res.faults).render())
        if report is not None:
            print(report.table().render())
    if report is not None:
        if res.faults.degraded:
            if args.format != "json":
                print("audit: degraded run — bounds not enforced")
            return 0
        return 0 if report.ok else 1
    return 0


def _render_certify_cases(cases, fmt: str) -> bool:
    """Print corpus/bench certification results; returns overall ok."""
    import json

    if fmt == "json":
        payload = [
            {
                "name": c.name,
                "ok": c.ok,
                "skipped": c.skipped,
                "report": c.report.to_dict() if c.report is not None else None,
            }
            for c in cases
        ]
        print(json.dumps(payload, indent=2))
    else:
        for c in cases:
            if c.report is None:
                print(f"{c.name}: skipped ({c.skipped})")
            else:
                verdict = "CERTIFIED" if c.report.ok else "FAIL"
                worst = c.report.worst_row
                ratio = f", worst ratio {worst.ratio:.3f}" if worst is not None else ""
                print(f"{c.name}: {verdict}{ratio}")
                if not c.report.ok:
                    print(c.report.table().render())
    return all(c.ok for c in cases)


def cmd_audit(args) -> int:
    import json

    from repro.obs.audit import RunMeta, audit_run
    from repro.obs.exporters import read_jsonl

    corpus_dir = getattr(args, "certify_corpus", None)
    bench_file = getattr(args, "certify_bench", None)
    if corpus_dir is not None or bench_file is not None:
        from repro.analysis.cost import certify_bench, certify_corpus

        ok = True
        if corpus_dir is not None:
            ok = _render_certify_cases(
                certify_corpus(corpus_dir), args.format
            ) and ok
        if bench_file is not None:
            ok = _render_certify_cases(
                certify_bench(bench_file), args.format
            ) and ok
        if args.events_file is None:
            return 0 if ok else 1
        # fall through: also audit/certify the given log
        if not ok:
            return 1

    if args.events_file is None:
        raise ValueError(
            "events_file is required unless --certify-corpus or --certify-bench is given"
        )
    meta_dict, events = read_jsonl(args.events_file)
    if meta_dict is None:
        raise ValueError(
            f"{args.events_file} has no run_meta line (write it with 'repro sort --events PATH')"
        )
    meta = RunMeta.from_dict(meta_dict)
    report = audit_run(events, meta)
    conformance = None
    if getattr(args, "protocol", None) is not None:
        from repro.obs.conformance import check_conformance

        with open(args.protocol, encoding="utf-8") as fh:
            schema = json.load(fh)
        conformance = check_conformance(schema, events)
    certification = None
    if getattr(args, "certify", False):
        from repro.analysis.cost import certify_events

        certification = certify_events(events, meta)
    if args.format == "json":
        payload = report.to_dict()
        if conformance is not None:
            payload["protocol"] = conformance.to_dict()
        if certification is not None:
            payload["certify"] = certification.to_dict()
        print(json.dumps(payload, indent=2))
    else:
        print(report.table().render())
        if conformance is not None:
            print(conformance.table().render())
        if certification is not None:
            print(certification.table().render())
    ok = (
        report.ok
        and (conformance is None or conformance.ok)
        and (certification is None or certification.ok)
    )
    return 0 if ok else 1


def _render_profile(prof, whatifs=()) -> str:
    """Text rendering of a RunProfile (used by sort --profile and profile)."""
    from repro.metrics.report import Table

    cp = prof.critical
    lines = [
        f"critical path: {cp.total:.3f} s over {len(cp.segments)} segments "
        f"({'complete' if cp.complete else 'INCOMPLETE'}; "
        f"run elapsed {prof.elapsed:.3f} s)",
        "  by component: "
        + "  ".join(f"{c}={v:.3f}s" for c, v in sorted(cp.by_component.items()) if v > 0),
        f"straggler index: {prof.blame.straggler_index:.3f} "
        f"(max/mean productive time; paper's item bound: "
        f"{prof.blame.straggler_reference:g}x)",
        "run totals (all nodes): "
        + "  ".join(
            f"{c}={prof.blame.totals.get(c, 0.0):.3f}s"
            for c in ("compute", "disk", "net", "barrier", "other")
        ),
    ]
    if not prof.timeline.has_compute:
        lines.append(
            "note: log lacks compute events (capture level below 'full'); "
            "compute time reports as 'other'"
        )
    blame = Table(
        "per-step blame",
        ["step", "span(max)", "skew", "dominant", "compute", "disk", "net", "barrier", "other"],
    )
    for sb in prof.blame.steps:
        totals = sb.totals()
        blame.add_row(
            sb.step,
            sb.span_max,
            sb.time_skew,
            sb.dominant(),
            totals["compute"],
            totals["disk"],
            totals["net"],
            totals["barrier"],
            totals["other"],
        )
    lines.append(blame.render())
    if whatifs:
        wi = Table(
            "what-if predictions",
            ["scenario", "predicted (s)", "recorded (s)", "speedup", "fidelity"],
        )
        for w in whatifs:
            wi.add_row(
                w.scenario,
                w.predicted_elapsed,
                w.recorded_elapsed,
                f"{w.speedup:.2f}x",
                "approx" if w.approximate else "exact-seq",
            )
        lines.append(wi.render())
    return "\n".join(lines)


def cmd_profile(args) -> int:
    import json

    from repro.obs.exporters import read_jsonl, write_chrome_trace
    from repro.obs.profiler import profile_from_jsonl_meta

    meta_dict, events = read_jsonl(args.events_file)
    if not events:
        raise ValueError(f"{args.events_file} contains no events")
    prof = profile_from_jsonl_meta(meta_dict, events)
    if meta_dict is None or "hw" not in meta_dict:
        print(
            "warning: log has no 'hw' metadata (written by older versions); "
            "what-ifs assume the stock hardware model",
            file=sys.stderr,
        )
    whatifs = [prof.what_if(spec) for spec in (args.what_if or [])]
    if args.trace:
        write_chrome_trace(
            args.trace, events, critical=prof.critical.segments
        )
    if args.format == "json":
        payload = prof.to_dict()
        payload["command"] = "profile"
        payload["events_file"] = args.events_file
        if whatifs:
            payload["what_if"] = [w.to_dict() for w in whatifs]
        print(json.dumps(payload, indent=2))
    else:
        print(_render_profile(prof, whatifs))
    return 0


def cmd_bench(args) -> int:
    import json

    from repro.metrics.bench import load_bench, report_rows

    # Only one sub-action today; argparse enforces bench_command.
    doc = load_bench(args.bench_file)
    rows = report_rows(doc, factor=args.factor)
    regressions = [r for r in rows if r["regressed"]]
    payload = {
        "command": "bench-report",
        "bench_file": args.bench_file,
        "factor": args.factor,
        "n_runs": len(rows),
        "n_regressions": len(regressions),
        "runs": rows,
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        from repro.metrics.report import Table

        table = Table(
            f"bench report ({args.bench_file}, factor {args.factor:g}x)",
            ["key", "elapsed (s)", "best (s)", "ratio", "verdict", "blamed step"],
        )
        for r in rows:
            blamed = (
                f"{r['blamed_step']} [{r['blamed_component']}]"
                if r["regressed"] and r["blamed_step"]
                else ""
            )
            table.add_row(
                r["key"],
                r["elapsed_seconds"],
                r["best_elapsed_seconds"],
                f"{r['ratio']:.2f}",
                "REGRESSED" if r["regressed"] else "ok",
                blamed,
            )
        print(table.render())
        if regressions:
            print(
                f"{len(regressions)} configuration(s) regressed beyond "
                f"{args.factor:g}x their best recorded time"
            )
    return 1 if regressions else 0


def cmd_calibrate(args) -> int:
    from repro.cluster.machine import paper_cluster
    from repro.core.calibration import calibrate

    spec = paper_cluster(memory_items=args.memory)
    cal = calibrate(spec, args.n, block_items=args.block)
    for ns, t in zip(spec.nodes, cal.times):
        print(f"{ns.name:<12} {t:10.3f} s")
    print(f"perf vector: {cal.perf.values}")
    return 0


def cmd_table2(args) -> int:
    from repro.cluster.machine import paper_cluster
    from repro.core.calibration import sequential_sort_table
    from repro.metrics.report import Table

    sizes = [int(x) for x in args.sizes.split(",")]
    rows = sequential_sort_table(
        paper_cluster(memory_items=args.memory),
        sizes=sizes,
        repeats=2,
        block_items=args.block,
    )
    table = Table("Table 2 (scaled)", ["Node", "Input size", "Time (s)", "Dev"])
    last = None
    for r in rows:
        if r.node != last:
            table.add_section(r.node)
            last = r.node
        table.add_row("", r.n_items, r.stats.mean, r.stats.std)
    print(table.render())
    return 0


def cmd_table3(args) -> int:
    from repro.cluster.machine import Cluster, paper_cluster
    from repro.core.external_psrs import PSRSConfig, sort_array
    from repro.core.perf import PerfVector
    from repro.metrics.report import Table
    from repro.workloads.generators import make_benchmark

    table = Table("Table 3 (scaled)", ["perf", "Exe Time (s)", "S(max)"])
    times = {}
    for vals in ([1, 1, 1, 1], [4, 4, 1, 1]):
        perf = PerfVector(vals)
        n = perf.nearest_exact(args.n)
        data = make_benchmark(0, n, seed=0)
        cluster = Cluster(paper_cluster(memory_items=args.memory))
        res = sort_array(
            cluster, perf, data, PSRSConfig(block_items=args.block, message_items=8192)
        )
        times[tuple(vals)] = res.elapsed
        table.add_row(str(vals), res.elapsed, res.s_max)
    print(table.render())
    print(
        f"homogeneous/hetero ratio: "
        f"{times[(1, 1, 1, 1)] / times[(4, 4, 1, 1)]:.2f}x (paper: 1.96x)"
    )
    return 0


def cmd_sweep(args) -> int:
    from repro.cluster.machine import Cluster, paper_cluster
    from repro.core.external_psrs import PSRSConfig, sort_array
    from repro.core.perf import PerfVector
    from repro.metrics.report import Table
    from repro.workloads.generators import make_benchmark

    perf = PerfVector([1, 1, 1, 1])
    data = make_benchmark(0, args.n, seed=0)
    table = Table("message-size sweep", ["message (ints)", "Exe Time (s)"])
    for msg in [int(x) for x in args.sizes.split(",")]:
        cluster = Cluster(paper_cluster(loaded=False, memory_items=args.memory))
        res = sort_array(
            cluster, perf, data, PSRSConfig(block_items=args.block, message_items=msg)
        )
        table.add_row(msg, res.elapsed)
    print(table.render())
    return 0


def cmd_fuzz(args) -> int:
    import json

    from repro.fuzz import FuzzConfig, fuzz, replay_case

    if args.replay is not None:
        result = replay_case(args.replay, kernel=args.kernel)
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "command": "fuzz-replay",
                        "case": args.replay,
                        "scenario": result.case.scenario.to_dict(),
                        "expected": result.case.expect_status,
                        "status": result.outcome.status,
                        "matched": result.matched,
                        "reason": result.reason,
                    },
                    indent=2,
                )
            )
        else:
            verdict = "reproduced" if result.matched else "MISMATCH"
            print(f"{verdict}: {result.reason}")
            if result.case.note:
                print(f"note: {result.case.note}")
        return 0 if result.matched else 1

    config = FuzzConfig(
        seed=args.seed,
        max_runs=(
            args.max_runs
            if args.max_runs is not None
            else (None if args.time_budget is not None else 100)
        ),
        time_budget=args.time_budget,
        corpus_dir=args.corpus_dir,
        max_corpus=args.max_corpus,
        tighten_slack=args.tighten_slack,
        kernel=args.kernel,
    )
    log = (lambda msg: print(msg, file=sys.stderr)) if args.format == "text" else None
    report = fuzz(config, log=log)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        statuses = ", ".join(f"{k}={v}" for k, v in sorted(report.statuses.items()))
        print(
            f"fuzz: {report.runs} runs ({statuses}); corpus "
            f"{len(report.corpus_fingerprints)} scenarios, "
            f"{report.coverage_lines} lines, {report.signatures} signatures"
        )
        for case in report.violations:
            print(f"violation [{case.violation.kind}] {case.violation.detail}")
            print(f"  minimal: {case.shrunk.to_json()}")
            if case.path:
                print(f"  case file: {case.path}")
    return 0 if report.ok else 1


def cmd_lint(args) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


def cmd_workloads(_args) -> int:
    from repro.workloads.generators import BENCHMARKS

    for bid, spec in BENCHMARKS.items():
        print(f"{bid}  {spec.name:<14} {spec.description}")
    return 0


_COMMANDS = {
    "sort": cmd_sort,
    "calibrate": cmd_calibrate,
    "table2": cmd_table2,
    "table3": cmd_table3,
    "sweep": cmd_sweep,
    "workloads": cmd_workloads,
    "lint": cmd_lint,
    "audit": cmd_audit,
    "fuzz": cmd_fuzz,
    "profile": cmd_profile,
    "bench": cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command.  Exit codes: 0 ok, 1 a finding (violation,
    regression, mismatch), 2 bad input (unreadable file, malformed plan
    or log) — reported as one ``repro <cmd>: error:`` line."""
    args = build_parser().parse_args(argv)
    np.set_printoptions(threshold=16)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        from repro.faults.plan import FaultError

        if isinstance(exc, FaultError):
            raise  # an unrecovered simulated disk fault is not bad input
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
