"""Outside-in benchmark of the sdsvm command line.

    python3 perfbench/run.py --workload sim-contaminated --seed 1 --seconds 15 --trace 0

Runs one workload from BENCHMARK.json for --seconds of wall time as a closed
loop with one caller: the next op starts when the previous one returns.  Ops go in-process through
`sdsvm.cli.main(argv)`, the documented command line, so the benchmark stays
valid while the library API is refactored.  Every op's output is checked
against `oracle.py` before the next op starts (outside the op's timing); a
failed or wrong op counts in `failed`.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every op twice,
untraced and then with every layer wrapped by `tracer.py`, checks that both
runs produced identical outputs, and reports the per-layer metrics plus the
tracing overhead.

The last stdout line is one JSON object; a fuller record (environment, every
op's time, ratio bases, absent layers) goes to .bench_out/, and traced runs
also write their spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5  # set-ups per untraced run; setup_s is their median
MIN_OPS = 2  # per stretch of the loop


def op_seed(workload_seed: int, index: int) -> int:
    return (workload_seed * 1_000_003 + index) % 2**63


def tail(times):
    """(value, percentile, samples beyond): highest percentile with >= 10 beyond."""
    ordered = sorted(times)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def fresh_cli():
    """Import the package from this checkout's src/, discarding earlier imports."""
    for name in [m for m in sys.modules if m == "sdsvm" or m.startswith("sdsvm.")]:
        del sys.modules[name]
    import sdsvm.cli

    return sdsvm.cli


def environment(seed):
    def cpu_model():
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def git_commit():
        head = ROOT / ".git" / "HEAD"
        try:
            ref = head.read_text().strip()
            if ref.startswith("ref: "):
                return (ROOT / ".git" / ref[5:]).read_text().strip()
            return ref
        except OSError:
            return "unknown (not a git checkout)"

    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {
            k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


class Op:
    __slots__ = ("index", "seed", "phase", "wall", "cpu", "codes", "outputs", "problems", "test_err")

    def __init__(self, index, seed, phase):
        self.index, self.seed, self.phase = index, seed, phase
        self.problems = []
        self.test_err = None


def run_op(workload, main, op, tracer=None):
    if tracer is not None:
        tracer.begin_op(f"{op.phase}:{op.index}")
        main = tracer.span("cli", main)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        op.codes, op.outputs = workload.run(main, op.seed)
    except Exception:  # a traceback out of the CLI is a failed op, not a failed run
        op.codes, op.outputs = [None], {"exception": traceback.format_exc(limit=-3)}
    op.wall, op.cpu = time.perf_counter() - t0, time.process_time() - c0
    if tracer is not None:
        tracer.counts["cli.exit_nonzero"] += sum(code != 0 for code in op.codes)
    if hasattr(workload, "collect") and op.codes[0] is not None:
        try:
            workload.collect(op.outputs)
        except OSError as exc:
            op.problems.append(f"output file missing: {exc}")


def loop(workload, main, seed, deadline, first=0):
    """Closed loop until `deadline`; each op is checked before the next starts."""
    ops = []
    while len(ops) < MIN_OPS or time.perf_counter() < deadline:
        op = Op(first + len(ops), op_seed(seed, first + len(ops)), "timed")
        run_op(workload, main, op)
        check(workload, op)
        if not op.problems:
            op.test_err = workload.test_error(op.outputs)
        ops.append(op)
    return ops


def paired_loop(workload, main, seed, deadline, tracer):
    """Each op runs untraced, then again traced; both see the same host state.

    The untraced run is checked; the traced run must reproduce its outputs.
    """
    plain, traced = [], []
    while len(plain) < MIN_OPS or time.perf_counter() < deadline:
        a = Op(len(plain), op_seed(seed, len(plain)), "untraced")
        run_op(workload, main, a)
        check(workload, a)
        b = Op(a.index, a.seed, "traced")
        tracer.install()
        try:
            run_op(workload, main, b, tracer)
        finally:
            tracer.uninstall()
        if not b.problems and b.outputs != a.outputs:
            b.problems.append("traced output differs from the untraced output of the same op")
        plain.append(a)
        traced.append(b)
    return plain, traced


def check(workload, op):
    if op.problems:
        return
    if any(code != 0 for code in op.codes):
        op.problems.append(f"exit codes {op.codes}: {op.outputs.get('exception') or op.outputs.get('stderr', '')[-300:]}")
        return
    try:
        op.problems += workload.check(op.seed, op.outputs)
    except Exception as exc:  # output the checker cannot read is a wrong output
        op.problems.append(f"unreadable output: {exc!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sdsvm" / "cli.py").is_file():
        print(f"error: no sdsvm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy  # noqa: F401  (imported before any set-up is timed)

    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    workdir = ROOT / ".bench_out"
    workdir.mkdir(exist_ok=True)

    setups, warmups = [], []

    def set_up():
        t0 = time.perf_counter()
        cli = fresh_cli()
        workload.prepare(str(workdir), args.seed)
        op = Op(len(warmups), op_seed(args.seed, 10**9 + len(warmups)), "warmup")
        run_op(workload, cli.main, op)
        setups.append(time.perf_counter() - t0)
        check(workload, op)
        warmups.append(op)
        return cli

    start = time.perf_counter()
    if args.trace:
        cli = set_up()
        tracer = tracing.Tracer()
        plain, traced = paired_loop(workload, cli.main, args.seed, start + args.seconds, tracer)
        timed = plain + traced
    else:
        # Set-ups are spread over the run, so that their median is not taken
        # at a single moment of the host's speed.
        timed = []
        for k in range(SETUPS):
            cli = set_up()
            deadline = start + args.seconds * (k + 1) / SETUPS
            timed += loop(workload, cli.main, args.seed, deadline, first=len(timed))
        plain = timed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = warmups + timed
    failed = sum(bool(op.problems) for op in ops)

    walls = [op.wall for op in plain]
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed)}
    if args.trace:
        traced_ids = [f"traced:{op.index}" for op in traced]
        values, absent, bases = tracing.layer_metrics(tracer, traced_ids)
        values["trace.untraced_op_p50_s"] = statistics.median(walls)
        values["trace.traced_op_p50_s"] = statistics.median(op.wall for op in traced)
        values["trace.overhead_frac"] = statistics.median(b.wall / a.wall for a, b in zip(plain, traced)) - 1.0
        units = {name: spec[0] for name, spec in tracing.LAYER_METRICS.items()}
        units.update({"trace.untraced_op_p50_s": "s", "trace.traced_op_p50_s": "s", "trace.overhead_frac": "ratio"})
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        record.update(absent=absent, absent_call_sites=tracer.absent, ratio_bases=bases, hook_errors=tracer.counts["trace.hook_errors"])
        spans_path = workdir / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        tail_s, tail_pct, beyond = tail(walls)
        errors = [op.test_err for op in timed if op.test_err is not None]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_s": {"value": statistics.median(walls), "unit": "s"},
            "ops_per_s": {"value": len(walls) / sum(walls), "unit": "1/s"},
            "cpu_s_per_op": {"value": statistics.median(op.cpu for op in timed), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "test_err": {"value": statistics.median(errors) if errors else 1.0, "unit": "fraction"},
        }
        # The tail is recorded, not gated: on a shared host its run-to-run
        # spread reached the largest allowed bound (see CHANGES.md).
        record.update(op_tail_s={"value": tail_s, "percentile": tail_pct, "samples_beyond": beyond,
                                 "samples": len(walls)}, setup_runs_s=setups)
    record.update(
        attempted=len(ops), failed=failed, fail_frac=failed / len(ops), metrics=metrics,
        ops=[{"phase": op.phase, "index": op.index, "seed": op.seed, "wall_s": op.wall, "cpu_s": op.cpu,
              "problems": op.problems} for op in ops],
    )
    result_path = workdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    for op in ops:
        for problem in op.problems:
            print(f"FAIL {op.phase} op {op.index} (seed {op.seed}): {problem}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"{args.workload} op_tail_s = {tail_s:.6g} s (p{tail_pct:.1f} of {len(walls)}, {beyond} beyond)")
    if args.trace and (record["absent"] or tracer.absent):
        print(f"absent layers (reported as 0): {', '.join(record['absent']) or 'none'}")
        print(f"absent call sites: {', '.join(tracer.absent)}")
    print(f"fail_frac = {failed}/{len(ops)}; record in {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
