"""What ``repro lint --emit-schema`` / ``--emit-costs`` write, pinned.

The protocol schema and the derived cost bounds of each of the five
algorithms are read off the source by the analyzers, so a refactor of an
algorithm's code may move them without any test noticing.  This golden
is the one pin of the derived bounds: a bound changes only by
regenerating it in a reviewed diff.  ``tests/data/emitted_artifacts_golden.json``
holds all ten emitted documents with their source-position fields
(``line``, ``charge_lines``) stripped, so code may move within a file
but the extracted protocol and the derived bounds may not change.

Regenerate (only when a schema or a bound is *meant* to move) with::

    PYTHONPATH=src python -m tests.test_emitted_artifacts
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

import repro
from repro.analysis.cli import EXIT_CLEAN, main

GOLDEN_PATH = Path(__file__).parent / "data" / "emitted_artifacts_golden.json"
ALGORITHMS = ("dewitt", "external_psrs", "hyperquicksort", "in_core_psrs", "overpartition")
POSITION_KEYS = frozenset({"line", "charge_lines"})


def _strip(doc: object) -> object:
    if isinstance(doc, dict):
        return {k: _strip(v) for k, v in doc.items() if k not in POSITION_KEYS}
    if isinstance(doc, list):
        return [_strip(v) for v in doc]
    return doc


def emitted() -> dict[str, object]:
    """File name -> emitted document (position fields stripped)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main([
                "--no-cache",
                "--emit-schema", str(out / "schemas"),
                "--emit-costs", str(out / "costs"),
                str(Path(repro.__file__).parent),
            ])
        assert code == EXIT_CLEAN, sink.getvalue()
        return {
            path.name: _strip(json.loads(path.read_text(encoding="utf-8")))
            for path in sorted([*out.glob("schemas/*.json"), *out.glob("costs/*.json")])
        }


@pytest.fixture(scope="module")
def docs() -> dict[str, object]:
    return emitted()


def _golden() -> dict[str, object]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_algorithm_is_emitted_and_pinned(docs):
    names = sorted(
        f"{kind}-{algo}.json" for kind in ("costs", "protocol") for algo in ALGORITHMS
    )
    assert sorted(docs) == names
    assert sorted(_golden()) == names


@pytest.mark.parametrize(
    "name",
    [f"{kind}-{algo}.json" for kind in ("protocol", "costs") for algo in ALGORITHMS],
)
def test_emitted_document_matches_golden(docs, name):
    assert docs[name] == _golden()[name], f"{name} moved"


if __name__ == "__main__":
    doc = emitted()
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(doc)} documents)")
