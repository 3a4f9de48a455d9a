"""The benchmark's tracer still sees every layer it measures.

perfbench/tracer.py wraps package functions where their callers look them
up, and counts work from their arguments and results.  A refactor that
renames a traced function, or changes how it is called or what it returns,
would turn a per-layer metric silently into zero or a hook error.  This runs
the toy command under the tracer and pins what it sees.
"""

import importlib.util
from pathlib import Path

from sdsvm.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_toy(tmp_path, *flags):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        assert main(["toy", "--out-csv", str(tmp_path / "map.csv"), *flags]) == 0
    finally:
        tracer.uninstall()
    return tracer


def test_toy_fit_is_traced_at_every_layer(tmp_path):
    exhaustive = _traced_toy(tmp_path)
    sampled = _traced_toy(tmp_path, "--directions", "40")
    for tracer in (exhaustive, sampled):
        # data.fit_sdsvm is the simulation's route, which the toy does not
        # take; the map is drawn from the fit itself, with no build_map step.
        assert tracer.absent == ["sdsvm.cli.build_map", "sdsvm.data.fit_sdsvm"]
        assert tracer.counts["trace.hook_errors"] == 0
        # A map writer the tracer cannot see would leave this at 0.
        assert tracer.counts["outliermap.bytes"] > 0
    # Every pair of the 30- and 36-sample toy groups: 435 + 630.
    assert exhaustive.counts["outlyingness.directions"] == 1065
    assert sampled.counts["outlyingness.directions"] == 80
    assert sampled.counts["outlyingness.draws"] > 0
