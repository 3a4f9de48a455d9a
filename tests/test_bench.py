"""tools/bench.py summarizes perfbench records and compares BENCH files.

Feeds the tool's summary and compare functions synthetic records, so no
perfbench run starts.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench", _ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

END_TO_END = json.loads((_ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _record(seed, metrics, attempted=10, failed=0):
    return {
        "environment": {"python": "3.x", "numpy": "2.x", "nproc": 2, "workload_seed": seed},
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()},
    }


def test_quartiles_of_runs():
    assert bench.quartiles([3.0, 1.0, 2.0]) == {"median": 2.0, "q1": 1.5, "q3": 2.5, "runs": [3.0, 1.0, 2.0]}
    assert bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])["q1"] == 2.0


def test_summary_of_plain_and_traced_runs():
    plain = [_record(s, {"op_p50_s": v, "peak_rss_mb": 50.0 + s}) for s, v in ((1, 0.03), (2, 0.01), (3, 0.02))]
    traced = [
        _record(s, {"svm.solve_dual.self_s": v, "svm.solve_dual.calls": 4.0, "trace.overhead_frac": o}, failed=s // 3)
        for s, v, o in ((1, 0.004, 0.1), (2, 0.002, 0.3), (3, 0.006, 0.2))
    ]
    entry = bench.summarize(plain, traced, ["op_p50_s", "peak_rss_mb"])
    assert entry["environment"] == {"python": "3.x", "numpy": "2.x", "nproc": 2}
    assert (entry["attempted"], entry["failed"]) == (60, 1)
    op = entry["end_to_end"]["op_p50_s"]
    assert (op["unit"], op["median"], op["q1"], op["q3"]) == ("s", 0.02, 0.015, 0.025)
    assert entry["end_to_end"]["peak_rss_mb"]["median"] == 52.0
    layers = entry["traced"]
    assert layers["source"].startswith("perfbench/tracer.py")
    assert layers["overhead_frac"]["median"] == 0.2
    # Self times only: counts such as calls stay in the perfbench records.
    assert list(layers["self_s"]) == ["svm.solve_dual.self_s"]
    assert layers["self_s"]["svm.solve_dual.self_s"]["median"] == 0.004


def _bench_file(sha, **medians):
    return {
        "byte_manifest_sha256": sha,
        "workloads": {
            workload: {"end_to_end": {m["name"]: {"median": value} for m in END_TO_END}}
            for workload, value in medians.items()
        },
    }


def test_compare_gives_ratio_and_bound_per_metric():
    before = _bench_file("a", w1=2.0, w2=1.0)
    after = _bench_file("a", w1=2.6, w2=1.0, w3=5.0)
    rows = bench.compare(before, after, END_TO_END)
    # Workloads both files hold, each with every end-to-end metric in order.
    assert [(r[0], r[1]) for r in rows] == [(w, m["name"]) for w in ("w1", "w2") for m in END_TO_END]
    by_key = {(r[0], r[1]): r for r in rows}
    bounds = {m["name"]: m["bound"] for m in END_TO_END}
    for (workload, metric), (_, _, a, b, ratio, bound, within) in by_key.items():
        assert bound == bounds[metric]
        assert ratio == pytest.approx(b / a)
    # 1.3x is worse than any bound for a lower-is-better metric, and better
    # for the one higher-is-better metric.
    assert by_key[("w1", "op_p50_s")][4:] == (pytest.approx(1.3), 0.25, False)
    assert by_key[("w1", "ops_per_s")][6] is True
    assert all(r[6] for r in rows if r[0] == "w2")


def test_compare_reads_zero_medians_and_prints_the_table(tmp_path, capsys):
    before, after = _bench_file("a", w=0.0), _bench_file("b", w=0.0)
    assert {r[4] for r in bench.compare(before, after, END_TO_END)} == {1.0}
    after["workloads"]["w"]["end_to_end"]["test_err"]["median"] = 0.1
    row = [r for r in bench.compare(before, after, END_TO_END) if r[1] == "test_err"][0]
    assert row[4:] == (float("inf"), 0.2, False)
    paths = [tmp_path / "A.json", tmp_path / "B.json"]
    for path, data in zip(paths, (before, after)):
        path.write_text(json.dumps(data))
    assert bench.main(["--compare", *map(str, paths)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["workload", "metric", "A", "B", "B/A", "bound", "within"]
    assert len(lines) == 2 + len(END_TO_END)
    assert lines[-1] == "byte manifest: DIFFERENT sha256"


def test_label_must_name_a_file_at_the_root():
    with pytest.raises(SystemExit):
        bench.main(["--label", "../elsewhere"])
