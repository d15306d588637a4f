"""finitype benchmark: one workload of shipped catalog documents.

Run from the repository root, with no build step:

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

--trace 0 runs the workload's document set again and again for --seconds
and reports the end-to-end metrics; --trace 1 runs the set once untraced and
twice traced and reports the per-layer metrics. Every output is checked
outside the timed region. A table and a record of the run go to standard
output; its last line is one JSON object with the keys correct, attempted,
failed and metrics. README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "finitype"

SETUP_REPEATS = 15
TRACED_PASSES = 2


def import_program():
    """Put the checkout's own source first on the path; refuse to run
    against anything else."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"bench: no program source under {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    import finitype
    if Path(finitype.__file__).resolve().parent != PACKAGE:
        sys.exit(f"bench: imported finitype from {finitype.__file__}, "
                 f"not from {PACKAGE}")


@dataclass
class Pass:
    """One run through the workload's documents."""

    wall: float = 0.0
    cpu: float = 0.0
    doc_max: float = 0.0
    raw_wall: float = 0.0
    digests: dict = field(default_factory=dict)   # document -> fingerprint
    failed: list = field(default_factory=list)
    degraded: int = 0
    ess_gap: float = 0.0
    peak_rss_mb: float = 0.0    # of the process so far, at the pass's end


def run_pass(pipeline, docs, reference, ticks=True):
    """Run every document, timing only the pipeline itself, in seconds
    scaled to the host's quiet speed (hostspeed.py). ``ticks`` False keeps
    the speed kernel out of the pipeline's calls, for the traced passes.

    With ``reference`` None this is the first pass: each output goes through
    the full correctness gate. Later passes must reproduce its fingerprints.
    """
    import checks
    import workloads

    p = Pass()
    for name, doc in docs:
        # the previous document's output and garbage must not be alive here:
        # they would set the peak memory and cost collections in the timing
        out = None
        gc.collect()
        problem = None
        with hostspeed.ScaledClock(ticks) as clock:
            try:
                out = pipeline(name, doc)
            except Exception:       # a failed document must not stop the run
                out, problem = None, traceback.format_exc()
        p.raw_wall += clock.raw_wall
        p.wall += clock.wall
        p.cpu += clock.cpu
        p.doc_max = max(p.doc_max, clock.wall)
        if out is not None:
            try:
                digest = workloads.fingerprint(out)
                if reference is None:
                    checks.check(out)
                elif reference.get(name) != digest:
                    raise checks.CheckFailed("output differs from the first pass")
                p.digests[name] = digest
                p.degraded += checks.degraded_classes(out)
                if out.report is not None:
                    p.ess_gap += workloads.ess_gap(out)
            except Exception:
                problem = traceback.format_exc()
        if problem:
            p.failed.append(name)
            print(f"FAILED {name}\n{problem}", file=sys.stderr)
    p.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return p


def measure_setup(names):
    """Median over fresh interpreters of import, load, parse and validate,
    each scaled by the host's speed as the interpreter itself measured it."""
    probe = [sys.executable, str(BENCH / "setup_probe.py"), *names]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(probe, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def source_digest():
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(PACKAGE)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def run_record(args):
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(), "source_sha256": source_digest(),
        "FINITYPE_THREADS": os.environ.get("FINITYPE_THREADS"),
    }


def measure(pipeline, docs, seconds):
    """As many passes as fit in ``seconds`` at the mean pass time so far, and
    at least one; the first pass is checked."""
    start = time.perf_counter()
    passes = [run_pass(pipeline, docs, None)]
    while True:
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes
        passes.append(run_pass(pipeline, docs, passes[0].digests))


def end_to_end(passes, setup_s, runs_dimcalc):
    def median(key):
        return statistics.median(getattr(p, key) for p in passes)

    first = passes[0]
    return {
        "wall_s": (median("wall"), "s"),
        "cpu_s": (median("cpu"), "s"),
        "doc_s.max": (median("doc_max"), "s"),
        "setup_s": (setup_s, "s"),
        # after the first pass, so that the number of passes that fit the
        # run does not move it
        "peak_rss_mb": (first.peak_rss_mb, "MB"),
        # census runs no dimension layer; the constant keeps the metric
        # present, and nonzero, on every workload
        "ess_gap": (first.ess_gap if runs_dimcalc else 1.0, "dim"),
    }


def traced_run(pipeline, docs):
    """One untraced pass, then traced passes that must reproduce both its
    outputs and each other's counters."""
    import layers
    import spans

    untraced = run_pass(pipeline, docs, None, ticks=False)
    tracer = spans.Tracer()
    layers.instrument(tracer)
    try:
        traced = []
        for _ in range(TRACED_PASSES):
            tracer.reset()
            p = run_pass(pipeline, docs, untraced.digests, ticks=False)
            traced.append((p, *tracer.snapshot()))
    finally:
        tracer.restore()

    problems = []
    counts = [c for _, c, _ in traced]
    if any(c != counts[0] for c in counts):
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        problems.append(f"traced passes gave different counters: {diff}")
    times = {span: tuple(statistics.mean(t[span][i] for _, _, t in traced)
                         for i in (0, 1))
             for span in traced[0][2]}
    overhead = statistics.mean(p.wall for p, _, _ in traced) - untraced.wall
    metrics = layers.metrics(counts[0], times, overhead, untraced.degraded)
    return [untraced] + [p for p, _, _ in traced], metrics, problems


def main(argv=None):
    import_program()
    import checks
    import workloads
    from finitype import catalog

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    print("record", json.dumps(run_record(args)), flush=True)
    pipeline, names = workloads.WORKLOADS[args.workload]
    order = list(names)
    random.Random(args.seed).shuffle(order)
    docs = [(n, catalog.load_document(n)) for n in order]

    hostspeed.sample()      # warm the kernel up before it measures anything
    problems = []
    try:
        checks.degradation_selftest()
    except Exception:
        problems.append(f"degradation self-test: {traceback.format_exc()}")

    if args.trace:
        passes, metrics, trace_problems = traced_run(pipeline, docs)
        problems += trace_problems
    else:
        setup_s = measure_setup(order)
        passes = measure(pipeline, docs, args.seconds)
        metrics = end_to_end(passes, setup_s, pipeline is workloads.analyze)

    attempted = len(docs) * len(passes)
    failed = sum(len(p.failed) for p in passes)
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}", file=sys.stderr)

    walls = sorted(p.wall for p in passes)
    raw = sorted(p.raw_wall for p in passes)
    print(f"{args.workload}: {len(docs)} documents x {len(passes)} passes, "
          f"pass wall min {walls[0]:.4f} s, max {walls[-1]:.4f} s "
          f"(unscaled {raw[0]:.4f} s, {raw[-1]:.4f} s)")
    shown = dict(metrics)
    if not args.trace:
        shown["failed_frac"] = (failed / attempted, "ratio")
        shown["degraded_classes"] = (passes[0].degraded, "count")
    for name, (value, unit) in shown.items():
        print(f"  {name:34s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
