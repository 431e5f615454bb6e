import json
from pathlib import Path

import enscgp

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_resolves():
    missing = [name for name in enscgp.__all__ if not hasattr(enscgp, name)]
    assert missing == []


def test_benchmark_per_layer_names_resolve(monkeypatch):
    # the traced benchmark run fails when a declared span or counter is gone
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans

    tracer = spans.Tracer()
    tracer.traced(lambda: None)  # the root span every benchmark step runs under
    produced = tracer.layer_metrics(0, [1.0], [1.0])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in produced]
    assert missing == []
