"""Benchmark entry point: one workload per run, or ``--workload all``.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 10 --trace 0

Run from a source checkout; the package is imported from ``src/``.  With
``--trace 0`` the run measures set-up time in fresh interpreters and
repeats whole passes over the workload's operation list for ``--seconds``,
then reports the end-to-end metrics.  With ``--trace 1`` it runs every
operation untraced and then traced, and reports the per-layer metrics and
the tracing overhead.  Metric names and units come from ``BENCHMARK.json``.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Fresh-interpreter probes for set-up time, half before and half after
#: the measured passes, plus one uncounted warm-up (bytecode and page cache).
SETUP_PROBES = 12
#: A run repeats whole passes until ``--seconds`` have passed and it holds
#: at least this many operations, so that ten samples lie beyond its p90.
MIN_OPS = 100
PROBE = (
    "import time; t0 = time.perf_counter(); import symcurv; t1 = time.perf_counter(); "
    "symcurv.canonical_elements(); t2 = time.perf_counter(); import symcurv.cli; "
    "t3 = time.perf_counter(); print(t1 - t0, t2 - t1, t3 - t2)"
)


def setup_probes(count: int) -> list:
    """``count`` fresh interpreters, each timing ``import symcurv``, the
    ``canonical_elements()`` build and then ``import symcurv.cli``; each
    row ends with the probe's start and end on this process's clock."""
    rows = []
    for _ in range(count):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, timeout=60)
        if done.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{done.stderr}")
        rows.append([float(v) for v in done.stdout.split()] + [start, time.perf_counter()])
    return rows


def setup_metrics(rows: list, meter: SpeedMeter | None) -> dict:
    """Medians: import + ``canonical_elements()`` (the set-up time, scaled
    when a meter ran), the build alone, and the cost of importing
    ``symcurv.cli`` from nothing."""
    scale = [meter.factor(r[3], r[4]) if meter else 1.0 for r in rows]
    return {
        "setup_s": statistics.median((r[0] + r[1]) * f for r, f in zip(rows, scale)),
        "raw.setup_s": statistics.median(r[0] + r[1] for r in rows),
        "curvature.canonical_elements.ms": 1000 * statistics.median(r[1] for r in rows),
        "cli.import_ms": 1000 * statistics.median(r[0] + r[2] for r in rows),
    }


@dataclass
class Record:
    """Every operation a run attempted: label, clock interval, seconds
    spent in it (less any speed-meter samples), and what went wrong."""

    meter: SpeedMeter | None = None
    labels: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    times: list = field(default_factory=list)
    rss_kb: list = field(default_factory=list)
    json_bytes: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def run(self, op) -> float:
        """Time one op and check its output after the clock stops; its seconds."""
        stolen = self.meter.stolen if self.meter else 0.0
        start = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # noqa: BLE001 - a raising op is a measured outcome
            result, error = None, exc
        end = time.perf_counter()
        elapsed = end - start - ((self.meter.stolen if self.meter else 0.0) - stolen)
        problem = op.check(result, error)
        self.labels.append(op.label)
        self.spans.append((start, end))
        self.times.append(elapsed)
        self.rss_kb.append(getattr(result, "maxrss_kb", 0))
        self.json_bytes.append(getattr(result, "json_bytes", 0))
        if problem is not None:
            self.problems.append(f"{op.label}: {problem}")
        return elapsed

    def scaled(self) -> list:
        """Op times at the reference machine speed."""
        return [t * self.meter.factor(*span) for t, span in zip(self.times, self.spans)]


def end_to_end(ops: list, seconds: float, workload: str, meter: SpeedMeter) -> tuple[dict, Record]:
    record = Record(meter)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or record.attempted < MIN_OPS:
        for op in ops:
            record.run(op)
    if workload == "cli":
        peak_kb = max(record.rss_kb)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"peak_rss_mb": peak_kb / 1024}
    for prefix, times in (("", record.scaled()), ("raw.", record.times)):
        times_ms = [1000 * t for t in times]
        metrics[prefix + "ops_per_s"] = (record.attempted - record.failed) / sum(times)
        metrics[prefix + "op_median_ms"] = statistics.median(times_ms)
        metrics[prefix + "op_p90_ms"] = statistics.quantiles(times_ms, n=10)[8]
    return metrics, record


def per_layer(sc, ops: list, seconds: float, spans_path: Path) -> tuple[dict, Record]:
    """Run each op untraced and then traced, back to back, for whole
    passes.  Per-layer figures are per traced pass; the overhead compares
    the traced and untraced time of the same ops, which pairing keeps
    clear of slow drifts in machine speed."""
    tracer = Tracer()
    record = Record()
    plain_s = traced_s = 0.0
    passes = json_bytes = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not passes:
        for op in ops:
            plain_s += record.run(op)
            with tracer.installed(sc):
                traced_s += record.run(op)
            json_bytes += record.json_bytes[-1]
        passes += 1
    tracer.settle()
    tracer.write_spans(spans_path)
    metrics = {k + ".self_ms": 1000 * v / passes for k, v in tracer.self_s.items()}
    metrics.update({k: v / passes for k, v in tracer.counts.items()})
    metrics.update(tracer.maxima)
    metrics["cli.json_bytes"] = json_bytes / passes
    metrics["trace.overhead_pct"] = 100 * (traced_s / plain_s - 1)
    return metrics, record


def run_one(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (SRC / "symcurv" / "__init__.py").is_file():
        print(f"error: no symcurv package under {SRC}", file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        meter = None if args.trace else stack.enter_context(SpeedMeter())
        probes = setup_probes(1 + SETUP_PROBES // 2)[1:]
        sys.path.insert(0, str(SRC))
        import symcurv as sc
        import symcurv.cli  # noqa: F401  (the cli workload calls sc.cli.main)
        sc.canonical_elements()

        OUT.mkdir(exist_ok=True)
        workdir = OUT / f"work-{args.workload}-{os.getpid()}"
        workdir.mkdir()
        try:
            # The traced cli run calls main(argv) in-process on the same argv.
            extra = {"in_process": True} if args.trace and args.workload == "cli" else {}
            ops = workloads.BUILDERS[args.workload](
                sc, random.Random(f"{args.workload}/{args.seed}"), workdir, **extra)
            # The benchmark's own inputs and oracle data would otherwise sit in
            # the oldest GC generation and make the library's collections slower.
            gc.freeze()
            if args.trace:
                spans = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
                values, record = per_layer(sc, ops, args.seconds, spans)
            else:
                values, record = end_to_end(ops, args.seconds, args.workload, meter)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        values.update(setup_metrics(probes + setup_probes(SETUP_PROBES // 2), meter))

    metrics = {}
    for entry in declared:
        value = float(values.get(entry["name"], 0))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    raw = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "metrics": metrics, "unscaled": {k: v for k, v in values.items() if k.startswith("raw.")},
           "attempted": record.attempted, "failed": record.failed,
           "problems": record.problems,
           "ops": [[label, 1000 * t] for label, t in zip(record.labels, record.times)]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(raw, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}: "
          f"{record.attempted} operations attempted, {record.failed} failed")
    for problem in record.problems[:20]:
        print(f"  FAILED {problem}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": record.failed == 0, "attempted": record.attempted,
                      "failed": record.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True, cwd=ROOT)
        print(done.stdout, end="")
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
