"""Bench file of the sdsvm benchmark: BENCH_<label>.json from perfbench runs.

    python tools/bench.py --label mine          # writes BENCH_mine.json
    python tools/bench.py --compare BENCH_before.json BENCH_after.json

With --label, runs `perfbench/run.py` (the command in BENCHMARK.json) on each
workload BENCHMARK.json lists, for each of SEEDS, once with --trace 0 and
once with --trace 1, each for the file's run_seconds.  That is 3 workloads x
3 seeds x 2 runs x 30 s, about ten minutes.  It then writes BENCH_<label>.json
at the root of the tree this script sits in.  The file holds:

- the sha256 of `tools/byte_manifest.py`'s output on this tree's `src`, so a
  pair of files shows whether two trees wrote the same bytes;
- per workload, perfbench's environment block (of the first untraced run,
  without its seed), the ops attempted and failed over all runs, and the
  median and quartiles of each end-to-end metric over the untraced runs;
- per workload, the median and quartiles of each per-layer self time over
  the traced runs.  These come from `perfbench/tracer.py`, not from the
  product, and carry its overhead, so they sit next to trace.overhead_frac.

With --compare, prints each end-to-end metric's median ratio B/A per
workload next to its bound in BENCHMARK.json, and whether the byte-manifest
hashes agree.  A and B should come from the same host: the numbers and the
hashes depend on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
SOURCE = "perfbench/tracer.py (--trace 1): self times include the tracer's overhead"


def quartiles(values) -> dict:
    """Median and quartiles (inclusive method) of two or more runs."""
    values = list(values)
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(plain, traced, end_to_end) -> dict:
    """One workload's entry from its perfbench records.

    plain and traced are the records `perfbench/run.py` wrote for the
    --trace 0 and --trace 1 runs, one per seed; end_to_end names the
    metrics to summarize from the plain runs.
    """
    environment = {k: v for k, v in plain[0]["environment"].items() if k != "workload_seed"}
    layers = sorted(name for name in traced[0]["metrics"] if name.endswith(".self_s"))
    return {
        "environment": environment,
        "attempted": sum(r["attempted"] for r in plain + traced),
        "failed": sum(r["failed"] for r in plain + traced),
        "end_to_end": {
            name: {"unit": plain[0]["metrics"][name]["unit"],
                   **quartiles(r["metrics"][name]["value"] for r in plain)}
            for name in end_to_end
        },
        "traced": {
            "source": SOURCE,
            "overhead_frac": quartiles(r["metrics"]["trace.overhead_frac"]["value"] for r in traced),
            "self_s": {name: quartiles(r["metrics"][name]["value"] for r in traced) for name in layers},
        },
    }


def compare(before, after, end_to_end) -> list:
    """Rows (workload, metric, A median, B median, B/A, bound, within) for
    the workloads both BENCH files hold.  within is False when B is worse
    than A by more than the bound: B/A - 1 for a lower-is-better metric,
    1 - B/A for a higher-is-better one."""
    rows = []
    for workload in [w for w in before["workloads"] if w in after["workloads"]]:
        for metric in end_to_end:
            a = before["workloads"][workload]["end_to_end"][metric["name"]]["median"]
            b = after["workloads"][workload]["end_to_end"][metric["name"]]["median"]
            ratio = b / a if a else (1.0 if b == a else float("inf"))
            worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            rows.append((workload, metric["name"], a, b, ratio, metric["bound"], worse <= metric["bound"]))
    return rows


def _perfbench(command, workload, seed, trace, seconds) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    print(f"bench: {workload} seed {seed} trace {trace}", file=sys.stderr, flush=True)
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"bench: {' '.join(argv)} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    path = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def _manifest_sha256() -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "byte_manifest.py")], cwd=ROOT, env=env,
                          capture_output=True, check=True)
    return hashlib.sha256(done.stdout).hexdigest()


def measure(label, benchmark) -> dict:
    records = {w["name"]: ([], []) for w in benchmark["workloads"]}
    # Seeds outermost, so that a drift of the host's speed is shared by the
    # workloads rather than falling on one of them.
    for seed in SEEDS:
        for workload, runs in records.items():
            for trace in (0, 1):
                runs[trace].append(_perfbench(benchmark["command"], workload, seed, trace, benchmark["run_seconds"]))
    names = [m["name"] for m in benchmark["end_to_end"]]
    return {
        "label": label,
        "seeds": list(SEEDS),
        "run_seconds": benchmark["run_seconds"],
        "byte_manifest_sha256": _manifest_sha256(),
        "workloads": {w: summarize(plain, traced, names) for w, (plain, traced) in records.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--label", help="measure this tree and write BENCH_<label>.json at its root")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="print B/A per end-to-end metric")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        before, after = (json.loads(Path(p).read_text()) for p in args.compare)
        print(f"{'workload':<18} {'metric':<14} {'A':>10} {'B':>10} {'B/A':>7} {'bound':>6}  within")
        for workload, metric, a, b, ratio, bound, within in compare(before, after, benchmark["end_to_end"]):
            print(f"{workload:<18} {metric:<14} {a:>10.4g} {b:>10.4g} {ratio:>7.3f} {bound:>6.2f}  "
                  f"{'yes' if within else 'NO'}")
        same = before["byte_manifest_sha256"] == after["byte_manifest_sha256"]
        print(f"byte manifest: {'same' if same else 'DIFFERENT'} sha256")
        return 0
    if not args.label or "/" in args.label:
        parser.error(f"--label must be a non-empty name without '/', got {args.label!r}")
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(measure(args.label, benchmark), indent=1) + "\n")
    print(f"bench: wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
