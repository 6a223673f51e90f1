"""Repo benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload detect_steady --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. With ``--trace 0`` the run measures the
end-to-end metrics; with ``--trace 1`` it installs span wrappers around
the program's layers and reports the per-layer metrics instead. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full result, with the run
environment, goes to ``perfbench/out/``; a traced run also writes its
spans there.
"""

import time

SETUP_START = time.perf_counter()   # set-up is timed from the top of this script

import argparse
import gc
import json
import os
import platform
import resource
import sys
from pathlib import Path

# BLAS threads are pinned before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
BENCHMARK = HERE.parent / "BENCHMARK.json"   # declares every metric's unit
WORKLOADS = ("detect_steady", "detect_open_vocab", "detect_hires", "train_step")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0))}


def measure(wl, seconds, tracer):
    """Whole rounds of operations until ``seconds`` of timed rounds have passed.

    Returns the per-round lists of successful operation times (s), the
    attempted and failed counts, the timed seconds, the problems the output
    checks found, and the errors of failed operations.
    """
    rounds, problems, errors = [], [], []
    attempted = failed = 0
    elapsed = 0.0
    while elapsed < seconds:
        ops = wl.round()
        outputs, latencies = [], []
        start = time.perf_counter()
        for fn, context in ops:
            t0 = time.perf_counter()
            try:
                out = tracer.run_op(attempted, fn) if tracer else fn()
            except Exception as exc:   # a failed operation is counted; the run goes on
                failed += 1
                errors.append(f"{type(exc).__name__}: {exc}")
            else:
                latencies.append(time.perf_counter() - t0)
                outputs.append((context, out))
            attempted += 1
        elapsed += time.perf_counter() - start
        rounds.append(latencies)
        for context, out in outputs:
            problems += wl.check(context, out)
    return rounds, attempted, failed, elapsed, problems, errors


def latency_ms(rounds):
    """(p50, p90, samples, samples above p90) in ms.

    p50 is each round's median operation time, averaged over the rounds.
    Every round holds the same operations, so this is the median operation
    time; averaging it per round makes a machine whose speed drifts during
    the run move it in proportion, where one median over the whole run
    would jump between the slow and the fast level. p90 is taken over all
    operations of the run.
    """
    flat = np.asarray([t for r in rounds for t in r]) * 1e3
    if not flat.size:
        return float("nan"), float("nan"), 0, 0
    p50 = float(np.mean([np.median(r) for r in rounds if r])) * 1e3
    p90 = float(np.percentile(flat, 90))
    return p50, p90, int(flat.size), int((flat > p90).sum())


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "efh" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    gc.collect()
    setup_s = time.perf_counter() - SETUP_START
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install_detector(wl.model)
        if args.workload == "train_step":
            tracer.install_training(wl.model, wl.opt)
    stats_before = wl.cache_stats()
    rounds, attempted, failed, elapsed, problems, errors = measure(wl, args.seconds, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache_delta = {k: v - stats_before[k] for k, v in wl.cache_stats().items()}
    if tracer:
        tracer.uninstall()
    problems += wl.final_check()

    p50, p90, samples, above_p90 = latency_ms(rounds)
    if tracer:
        values = spans.layer_metrics(tracer, len(wl.model.decoder.layers), cache_delta)
    else:
        values = {"setup_s": setup_s, "ops_per_s": (attempted - failed) / elapsed,
                  "latency_p50_ms": p50, "latency_p90_ms": p90,
                  "peak_rss_mib": peak_rss_mib}
    declared = json.loads(BENCHMARK.read_text())["per_layer" if tracer else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result = {"correct": not problems and samples > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "environment": environment(), "result": result,
              "samples": samples, "samples_above_p90": above_p90, "timed_s": elapsed,
              "latency_p50_ms": p50, "cache_delta": cache_delta, "problems": problems[:20],
              "errors": errors[:20]}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=2)
    if tracer:
        tracer.dump(OUT / f"{stem}.spans.json")
    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)
    for line in errors[:20]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"environment": detail["environment"], "samples": detail["samples"],
                      "samples_above_p90": detail["samples_above_p90"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
