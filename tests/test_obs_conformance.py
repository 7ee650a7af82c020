"""Trace conformance: NetTransfer sequences vs the extracted protocol.

Synthetic grammars first (each primitive's hardware footprint, root
binding, round semantics), then the acceptance loop: a recorded
{1,1,4,4} external_psrs run validated against the statically extracted
schema — clean passes, a tampered trace fails, a degraded run demotes
to informational.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis.protocol import emit_schemas, extract_schema
from repro.cli import main
from repro.cluster.machine import Cluster, heterogeneous_cluster
from repro.core.external_psrs import PSRSConfig, sort_array
from repro.core.perf import PerfVector
from repro.core.theory import max_duplicate_count
from repro.obs.audit import RunMeta
from repro.obs.conformance import check_conformance
from repro.obs.events import FaultInjected, NetTransfer
from repro.obs.exporters import write_jsonl
from repro.workloads.generators import make_benchmark


def prim(kind, root=None):
    return {"kind": kind, "root": root}


def step(name, ops, optional=False, may_repeat=False):
    return {"name": name, "ops": ops, "optional": optional,
            "may_repeat": may_repeat}


def schema(*steps):
    return {"version": 1, "algorithm": "synthetic", "steps": list(steps)}


def nt(src, dst, step_name="s"):
    return NetTransfer(t=0.0, node=src, step=step_name, src=src, dst=dst,
                       nbytes=4, duration=0.1)


FAULT = FaultInjected(t=0.0, node=0, step="s", category="kill", detail="n2")


class TestPrimitives:
    def test_gather_fan_in(self):
        sch = schema(step("s", [prim("gather", "root")]))
        ok_events = [nt(1, 0), nt(2, 0), nt(3, 0)]
        assert check_conformance(sch, ok_events).ok

    def test_gather_rejects_split_destination(self):
        sch = schema(step("s", [prim("gather", "root")]))
        report = check_conformance(sch, [nt(1, 0), nt(2, 1)])
        assert not report.ok and report.violations[0].step == "s"

    def test_scatter_fan_out(self):
        sch = schema(step("s", [prim("scatter", "root")]))
        assert check_conformance(sch, [nt(0, 1), nt(0, 2), nt(0, 3)]).ok
        assert not check_conformance(sch, [nt(0, 1), nt(1, 2)]).ok

    def test_bcast_binomial_holders_only(self):
        sch = schema(step("s", [prim("bcast", "root")]))
        # 0 -> 1, then both forward: a legal binomial round
        assert check_conformance(sch, [nt(0, 1), nt(0, 2), nt(1, 3)]).ok
        # 2 never received the payload, so it cannot forward
        assert not check_conformance(sch, [nt(0, 1), nt(2, 3)]).ok

    def test_alltoallv_any_cross_traffic(self):
        sch = schema(step("s", [prim("alltoallv")]))
        assert check_conformance(sch, [nt(0, 1), nt(2, 1), nt(1, 0)]).ok

    def test_send_is_exactly_one_message(self):
        sch = schema(step("s", [prim("send")]))
        assert check_conformance(sch, [nt(0, 1)]).ok
        assert not check_conformance(sch, [nt(0, 1), nt(1, 0)]).ok
        assert not check_conformance(sch, []).ok

    def test_barrier_consumes_nothing(self):
        sch = schema(step("s", [prim("barrier")]))
        assert check_conformance(sch, []).ok
        assert not check_conformance(sch, [nt(0, 1)]).ok


class TestRootBinding:
    def test_same_expression_must_resolve_to_same_node(self):
        sch = schema(
            step("s", [prim("gather", "cfg.root"), prim("bcast", "cfg.root")])
        )
        consistent = [nt(1, 0), nt(2, 0), nt(0, 1), nt(0, 2)]
        assert check_conformance(sch, consistent).ok
        # gather converges on 0 but the bcast then leaves from 1
        drifted = [nt(1, 0), nt(2, 0), nt(1, 0), nt(1, 2)]
        assert not check_conformance(sch, drifted).ok

    def test_distinct_expressions_bind_independently(self):
        sch = schema(step("s", [prim("gather", "a"), prim("bcast", "b")]))
        assert check_conformance(sch, [nt(1, 0), nt(2, 1), nt(2, 3)]).ok


class TestRoundSemantics:
    two_round = [nt(1, 0), nt(2, 0), nt(0, 1), nt(2, 1)]

    def test_fault_free_run_enforces_single_round(self):
        """may_repeat admits degraded re-runs only; a clean run that
        produces two rounds of traffic is a drift, not a repeat."""
        sch = schema(step("s", [prim("gather", "r")], may_repeat=True))
        report = check_conformance(sch, self.two_round)
        assert not report.ok

    def test_faulty_run_admits_repeats_informationally(self):
        sch = schema(step("s", [prim("gather", "r")], may_repeat=True))
        report = check_conformance(sch, [*self.two_round, FAULT])
        assert report.faulty
        assert all(not r.enforced for r in report.rows)
        assert report.ok  # nothing enforced failed

    def test_optional_step_that_never_ran_is_skipped(self):
        sch = schema(step("recover", [prim("gather", "r")], optional=True))
        report = check_conformance(sch, [])
        assert report.ok and report.rows == []

    def test_unknown_trace_step_is_informational(self):
        sch = schema(step("s", [prim("send")]))
        report = check_conformance(sch, [nt(0, 1), nt(1, 2, "mystery")])
        assert report.ok
        extra = [r for r in report.rows if r.step == "mystery"]
        assert extra and not extra[0].enforced


# -- acceptance: a real run against the real schema -------------------------


def _recorded_run(tmp_path=None):
    perf = PerfVector([1, 1, 4, 4])
    n = perf.nearest_exact(2**14)
    data = make_benchmark(0, n, seed=0)
    cluster = Cluster(
        heterogeneous_cluster([1.0, 1.0, 4.0, 4.0], memory_items=1024)
    )
    cluster.bus.set_level("io")
    cfg = PSRSConfig(block_items=256, message_items=2048)
    res = sort_array(cluster, perf, data, cfg)
    meta = RunMeta(
        n_items=res.n_items,
        perf=(1, 1, 4, 4),
        memory_items=1024,
        block_items=256,
        oversample=cfg.oversample,
        d_duplicates=max_duplicate_count(data),
    )
    return cluster.bus.events, meta


@pytest.fixture(scope="module")
def psrs_schema(package_project):
    return extract_schema(package_project, "external_psrs")


@pytest.fixture(scope="module")
def recorded():
    return _recorded_run()


class TestExternalPsrsConformance:
    def test_clean_run_conforms(self, psrs_schema, recorded):
        events, _ = recorded
        report = check_conformance(psrs_schema, events)
        assert report.ok, report.table().render()
        checked = {r.step for r in report.rows if r.enforced}
        assert {"2:pivots", "4:redistribute"} <= checked

    def test_tampered_transfer_is_caught(self, psrs_schema, recorded):
        events, _ = recorded
        tampered = []
        flipped = False
        for ev in events:
            if (not flipped and isinstance(ev, NetTransfer)
                    and ev.step == "2:pivots"):
                ev = dataclasses.replace(ev, dst=(ev.dst + 1) % 4)
                flipped = True
            tampered.append(ev)
        assert flipped
        assert not check_conformance(psrs_schema, tampered).ok

    def test_audit_cli_validates_protocol(self, psrs_schema, recorded,
                                          tmp_path, capsys):
        events, meta = recorded
        run = tmp_path / "run.jsonl"
        write_jsonl(str(run), events, meta.to_dict())
        sch = tmp_path / "schema.json"
        sch.write_text(json.dumps(psrs_schema), encoding="utf-8")
        rc = main(["audit", str(run), "--protocol", str(sch)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Protocol conformance: external_psrs" in out

    def test_audit_cli_json_payload_carries_protocol(self, psrs_schema,
                                                     recorded, tmp_path,
                                                     capsys):
        events, meta = recorded
        run = tmp_path / "run.jsonl"
        write_jsonl(str(run), events, meta.to_dict())
        sch = tmp_path / "schema.json"
        sch.write_text(json.dumps(psrs_schema), encoding="utf-8")
        rc = main(["audit", str(run), "--format", "json",
                   "--protocol", str(sch)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["protocol"]["ok"] is True
        assert payload["protocol"]["algorithm"] == "external_psrs"

    def test_audit_cli_unreadable_schema_exits_two(self, recorded, tmp_path):
        events, meta = recorded
        run = tmp_path / "run.jsonl"
        write_jsonl(str(run), events, meta.to_dict())
        rc = main(["audit", str(run), "--protocol", str(tmp_path / "no.json")])
        assert rc == 2

    def test_emit_schemas_writes_all_known_algorithms(self, package_project, tmp_path):
        written = emit_schemas(package_project, tmp_path)
        names = {p.name for p in written}
        assert "protocol-external_psrs.json" in names
        for p in written:
            payload = json.loads(p.read_text(encoding="utf-8"))
            assert payload["version"] >= 1
