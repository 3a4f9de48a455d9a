"""tools/byte_manifest.py stays runnable, and its hashes are deterministic."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "byte_manifest.py"
_spec = importlib.util.spec_from_file_location("byte_manifest", _PATH)
byte_manifest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(byte_manifest)

# A short subset: written files, a map read back from a fit, a full and a
# partial direction count, a computation error, a flag error, and one op of
# each benchmark workload: the 2000-sample RBF fit (the direct cblas_dsyrk
# Gram), the simulation over the default C grid (--cv-grid default) and the
# contaminated simulation at four kappas.
SUBSET = (
    "toy-directions-435",
    "fit-cv-list",
    "map-fit",
    "coincident-full-count",
    "bad-folds",
    "bench-rbf-2000-fit",
    "bench-sim-cv",
    "bench-sim-contaminated",
)


def test_two_runs_in_one_process_agree():
    first = byte_manifest.manifest(SUBSET)
    assert first == byte_manifest.manifest(SUBSET)
    outputs = [line.split("  ")[1] for line in first]
    expected = {f"{name}/{item}" for name in SUBSET for item in ("exit", "stdout", "stderr")}
    expected |= {"toy-directions-435/fit.txt", "fit-cv-list/fit.txt", "map-fit/map.csv", "map-fit/map.svg"}
    expected |= {"bench-rbf-2000-fit/fit.txt"}
    assert sorted(outputs) == sorted(expected)
    assert all(len(line.split("  ")[0]) == 64 for line in first)


def test_every_name_is_unique_and_known():
    names = [name for name, _ in byte_manifest.INVOCATIONS]
    assert len(names) == len(set(names))
    with pytest.raises(ValueError, match="unknown invocations"):
        byte_manifest.manifest(["toy", "no-such-invocation"])
