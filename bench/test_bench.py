"""Self-tests of the benchmark: ``python -m pytest bench -q``.

Kept outside the tier-1 ``testpaths``; every run here uses ``--quick``
problem sizes, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.obs import SpanRecord, validate_chrome_trace  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: layers each workload must reach at --quick sizes; together they cover
#: every entry of layers.LAYERS, so a wrapper patched onto a name no caller
#: uses fails here
_BALANCE = {"core.initial_distribution", "core.local_balance",
            "core.global_balance", "core.lpt_assign", "distsys.run_comm"}
_REPLAY = _BALANCE | {"amr.apply_cluster_boxes", "amr.sibling_pairs",
                      "core.place_new_grids", "distsys.run_compute",
                      "traces.generate_trace"}
EXPECTED_LAYERS = {
    "amr-shockpool": _BALANCE | {
        "amr.assemble_flags", "amr.cluster_flags", "amr.plan_regrid",
        "amr.apply_cluster_boxes", "amr.sibling_pairs", "core.place_new_grids",
        "distsys.run_compute", "distsys.probe_inter_link"},
    "replay-diffusion-4096": _REPLAY,
    "replay-distributed-4096": _REPLAY | {"distsys.probe_inter_link"},
    "service-flash": _BALANCE | {
        "distsys.probe_inter_link", "service.arrivals", "service.route",
        "service.histogram", "service.replica_matrix", "service.migration",
        "service.loop"},
}


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.fixture(scope="module")
def traced_sessions(tmp_path_factory):
    out = tmp_path_factory.mktemp("traces")
    return {name: (run.run_session(name, 0, 0.0, traced=True, quick=True,
                                   trace_out=out / f"trace-{name}.json"),
                   out / f"trace-{name}.json")
            for name in workloads.WORKLOADS}


def test_quick_smoke_every_workload(spec):
    names = [w["name"] for w in spec["workloads"]]
    records = run.measure(names, 0, 0.3, traced=False, quick=True, spec=spec)
    for rec in records:
        assert rec["correct"], rec["errors"]
        # at least three sessions, each with a cold and at least one warm unit
        assert rec["attempted"] >= 2 * run.MIN_SESSIONS
        assert rec["samples"]["setup_s"] >= run.MIN_SESSIONS
        for name, metric in rec["metrics"].items():
            assert metric["value"] > 0, (rec["workload"], name)


def test_every_layer_fires_where_declared(traced_sessions):
    assert set().union(*EXPECTED_LAYERS.values()) == {l.name for l in layers.LAYERS}
    for name, (report, path) in traced_sessions.items():
        assert report["errors"] == [], report["errors"]
        payload = json.loads(path.read_text())
        fired = {ev["name"] for ev in payload["traceEvents"] if ev["ph"] == "X"}
        missing = EXPECTED_LAYERS[name] - fired
        assert not missing, (name, missing)
        for layer in layers.LAYERS:
            assert report["layers"][f"{layer.name}.errors"] == 0


def test_trace_files_valid_and_labelled(traced_sessions):
    for name, (report, path) in traced_sessions.items():
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []
        units = {ev["args"]["unit"] for ev in payload["traceEvents"]
                 if ev["ph"] == "X"}
        # the set-up's spans and the one reported unit's spans
        assert units == {"setup", f"unit-{len(report['digests']) // 2 - 1}"}
        # warm-up, then (untraced, traced) pairs: every unit hashes alike
        assert len(set(report["digests"])) == 1 and None not in report["digests"]


def test_layer_self_times_sum_to_traced_unit(traced_sessions):
    in_unit = [l.name for l in layers.LAYERS if l.name != "traces.generate_trace"]
    for name, (report, _) in traced_sessions.items():
        m = report["layers"]
        total = m["unit.self_s"] + sum(m[f"{l}.self_s"] for l in in_unit)
        assert total == pytest.approx(report["traced_unit_s"], rel=0.01), name


def _span(name, span_id, parent, start, end, **attrs):
    return SpanRecord(name=name, span_id=span_id, parent_id=parent, track="t",
                      sim_start=start, sim_end=end, wall_start=start,
                      wall_end=end, attrs=attrs)


def test_self_time_arithmetic():
    records = [
        _span("core.lpt_assign", 3, 2, 2.0, 3.0, calls=1, grids=4, grid_x_procs=8),
        _span("core.global_balance", 2, 1, 1.0, 4.0, calls=1),
        _span("core.lpt_assign", 4, 1, 5.0, 9.0, calls=1, grids=2, grid_x_procs=4),
        _span("unit", 1, None, 0.0, 10.0),
    ]
    selfs = layers.self_times(records)
    assert selfs == {3: 1.0, 2: 2.0, 4: 4.0, 1: 3.0}
    assert sum(selfs.values()) == 10.0
    m = layers.layer_metrics(records)
    assert m["core.lpt_assign.self_s"] == 5.0
    assert m["core.global_balance.self_s"] == 2.0
    assert m["core.lpt_assign.calls"] == 2
    assert m["core.lpt_assign.grid_x_procs"] == 12
    assert m["amr.cluster_flags.self_s"] == 0


def test_wrapper_counts_errors_and_labels_units():
    layer = next(l for l in layers.LAYERS if l.name == "amr.cluster_flags")
    rec = layers.LayerTrace("t")

    def fails(*args):
        raise ValueError("boom")

    wrapped = rec._wrap(fails, layer)
    with rec.root("unit-0"), pytest.raises(ValueError):
        wrapped()
    spans = rec.take()
    assert [s.name for s in spans] == ["amr.cluster_flags", "unit"]
    assert spans[0].attrs == {"unit": "unit-0", "error": "ValueError"}
    assert spans[0].parent_id == spans[1].span_id
    assert layers.layer_metrics(spans)["amr.cluster_flags.errors"] == 1
    assert rec.take() == []


def test_benchmark_json_matches_run(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e, per_layer = spec["end_to_end"], spec["per_layer"]
    assert len(e2e) <= 16 and len(per_layer) <= 128
    assert [(m["name"], m["unit"]) for m in per_layer] == layers.per_layer_metrics()
    names = [m["name"] for m in e2e + per_layer] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)
    pins = json.loads(run.PINS_PATH.read_text())
    assert set(pins) == set(workloads.WORKLOADS)


def test_run_record_metric_names_match_spec(spec):
    sessions = [{"digests": ["d"], "errors": [], "python": "3", "numpy": "2",
                 "setup_s": 1.0, "first_run_s": 1.0, "wall_s": [1.0, 2.0],
                 "peak_rss_mb": 1.0}]
    rec = run.summarise("amr-shockpool", 12345, sessions, traced=False,
                        quick=True, seconds=1.0, spec=spec)
    assert list(rec["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert rec["correct"] and rec["attempted"] == 1


@pytest.mark.parametrize("a, b, bound, verdict", [
    ([1.0] * 10, [1.0] * 10, 0.1, "unchanged"),
    ([1.0] * 10, [1.2] * 10, 0.1, "regressed"),
    ([1.0] * 10, [0.8] * 10, 0.1, "improved"),
    ([1.0, 2.0, 1.0, 2.0], [1.5] * 4, 0.1, "unresolved"),
    ([1.0, 2.0, 1.0, 2.0], [0.5] * 4, 0.1, "improved"),
    ([1.0] * 10, [1.05] * 10, 0.1, "unchanged"),
    ([3.0] * 4, [3.0] * 4, None, "unchanged"),
    ([3.0] * 4, [4.0] * 4, None, "changed"),
])
def test_compare_verdicts(a, b, bound, verdict):
    assert run._verdict(a, b, bound, lower_better=True) == verdict


def test_compare_prints_rows(tmp_path, spec, capsys):
    def record(wall):
        return {"workload": "amr-shockpool", "traced": False, "failed": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text("".join(json.dumps(record(1.0)) + "\n" for _ in range(3)))
    b.write_text("".join(json.dumps(record(1.5)) + "\n" for _ in range(3)))
    run.compare(a, b, spec)
    row = next(l for l in capsys.readouterr().out.splitlines() if "wall_s" in l)
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")
    assert "regressed" in row and f"{bound:.2f}" in row


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and bench/, the benchmark exits non-zero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "amr-shockpool",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
