"""Run one workload of the cellsheaf benchmark and print its metrics.

    python3 perfbench/run.py --workload check-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The inputs are made from the seed in a
child process (`gen.py`), outside every measurement. Each operation is one
`cellsheaf` command called in-process through `cellsheaf.cli.main` with its
standard output captured, and every answer is checked by `checks.verify`.
A round is the workload's fixed list of operations, run to its end; rounds
repeat until `--seconds` have passed and at least 100 operations are done.

Times are given at a reference speed. The machine's speed drifts (on a
shared 2-core host, the same round of work took anywhere from 1.7 to 2.8 s
over a minute), so right before each operation, and before each set-up,
the benchmark times a fixed loop of its own exact arithmetic. A measured
time t becomes t * CALIBRATION_REF_S / (that loop's time): what the
operation would take on a machine where the loop takes 3 ms. A change to
cellsheaf does not touch the loop, so it moves the figures as it should.

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics; with `--trace 1` the program is wrapped by `tracing`, one
round runs, and the per-layer metrics are printed instead, the spans going
to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import exact  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("check-corpus", "grid-sections", "stalk-limits", "large-docs")
SETUP_REPEATS = 15
MIN_OPS = 100
WARMUP_OPS = 3
CALIBRATION_REF_S = 0.003
CALIBRATION_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 3) for j in range(8)]
                      for i in range(8)]


def calibrate() -> float:
    """Seconds the fixed calibration loop takes now (median of three)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reduced, _ = exact.rref(CALIBRATION_MATRIX, 8, None)
        json.dumps([str(x) for row in reduced for x in row])
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def import_cli():
    """Import cellsheaf afresh and return its `cli` module."""
    for name in [m for m in sys.modules if m == "cellsheaf" or m.startswith("cellsheaf.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("cellsheaf.cli")


def load_inputs(directory: Path) -> list:
    """The operations of the manifest, with document paths filled in and
    every document read once."""
    ops = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))["ops"]
    for op in ops:
        path = directory / op["doc"]
        path.read_bytes()
        op["argv"] = [str(path) if a == "{doc}" else a for a in op["argv"]]
    return ops


def call(main, argv):
    """(exit code or escaped exception, captured stdout, seconds at the
    reference speed).

    The garbage of earlier operations is collected first, outside the
    timing: each operation starts on a clean heap, as a fresh `cellsheaf`
    process would, so the order of the operations does not move its time.
    """
    buf = io.StringIO()
    loop = calibrate()
    gc.collect()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a fault of the program; the check reports it
            rc = exc
        elapsed = time.perf_counter() - start
    return rc, buf.getvalue(), elapsed * CALIBRATION_REF_S / loop, loop


def run_round(main, ops, samples, loops, problems):
    """Run every operation once; return (attempted, failed, seconds)."""
    failed = 0
    busy = 0.0
    for op in ops:
        rc, out, elapsed, loop = call(main, op["argv"])
        busy += elapsed
        samples.append(elapsed)
        loops.append(loop)
        why = checks.verify(op, rc, out)
        if why is not None:
            failed += 1
            problems.setdefault(f"{op['argv'][0]} {op['doc']}", (op.get("fault"), why))
    return len(ops), failed, busy


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cellsheaf benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cellsheaf" / "cli.py").is_file():
        print(f"no cellsheaf sources under {SRC}", file=sys.stderr)
        return 2
    inputs = HERE / "inputs" / f"{args.workload}-{args.seed}"
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--out", str(inputs)],
                   check=True, stdout=subprocess.DEVNULL)

    # A bytecode cache of the benchmark's own: the first import compiles,
    # the later ones load bytecode, whatever the environment says about
    # writing it next to the sources.
    sys.pycache_prefix = str(HERE / "results" / "pycache")
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # drop the modules of the last import, so they do not count in the peak
        scale = CALIBRATION_REF_S / calibrate()
        start = time.perf_counter()
        cli = import_cli()
        ops = load_inputs(inputs)
        setups.append((time.perf_counter() - start) * scale)

    for op in ops[:WARMUP_OPS]:
        call(cli.main, op["argv"])

    samples: list[float] = []
    loops: list[float] = []
    problems: dict = {}
    attempted = failed = 0
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install({layer: importlib.import_module(f"cellsheaf.{layer}")
                        for layer in tracing.LAYERS})
        attempted, failed, busy = run_round(cli.main, ops, samples, loops, problems)
        tracer.uninstall()
        spans_file = HERE / "results" / f"trace-{args.workload}-{args.seed}.json.gz"
        tracer.write(spans_file)
        print(f"traced round: {attempted} operations in {busy:.3f} s at the reference"
              f" speed, {len(tracer.span_start)} spans written to"
              f" {spans_file.relative_to(ROOT)}")
        metrics = tracer.metrics()
    else:
        rates = []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or attempted < MIN_OPS:
            n, bad, busy = run_round(cli.main, ops, samples, loops, problems)
            attempted += n
            failed += bad
            rates.append(n / busy)
        print(f"{len(rates)} rounds of {len(ops)} operations in"
              f" {time.perf_counter() - start:.1f} s; calibration loop median"
              f" {statistics.median(loops) * 1000:.3f} ms (reference"
              f" {CALIBRATION_REF_S * 1000:g} ms)")
        metrics = {
            "ops_per_s": (statistics.median(rates), "1/s"),
            "op_p50_ms": (statistics.median(samples) * 1000, "ms"),
            "op_p90_ms": (percentile(samples, 90) * 1000, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    for key, (fault, why) in sorted(problems.items()):
        print(f"failed {key}{f' (known fault {fault})' if fault else ''}: {why}")
    print(json.dumps({
        "correct": all(fault for fault, _ in problems.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
