"""Wall-clock benchmark of the serving stack and the paper algorithms.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-sssp-mixed --seed 1 \
        --seconds 20 --trace 0

One run repeats *passes* of the workload until ``--seconds`` of set-up
plus timed work have elapsed (at least two passes, so the determinism
guard has something to compare).  Each pass builds fresh state.  Every
answer is checked by the untimed oracle (``perfbench/oracle.py``).

``--trace 0`` reports the end-to-end metrics, measured with only the
always-on probes the latency metrics need.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones, plus the tracing overhead (traced minus untraced
``wall_s``); the spans of the first traced pass are written gzipped to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run with any
failed or wrong answer, a leaked shared-memory segment, or a modeled
result that differs between passes (or from an earlier run of the same
seed in this checkout) is reported with ``"correct": false``, is not
recorded in ``perfbench/out/results.jsonl``, and exits with code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# Worker processes are spawned: they re-import this file as
# ``__mp_main__``, so everything below this point that does work runs
# only under the ``__main__`` guard.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: Passes per run, whatever --seconds says.
MIN_PASSES = 2
#: Untraced passes repeat set-up (discarding all but the last state)
#: until both floors are met, so ``setup_s`` is a median of many.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 0.5
SETUP_MAX_REPS = 25
#: Seed kept out of tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 4099

END_TO_END = (
    ("wall_s", "s"),
    ("queries_per_s", "q/s"),
    ("query_wall_ms_p50", "ms"),
    ("query_wall_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("answered_fraction", "fraction"),
)


def _import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    import repro

    where = Path(repro.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"perfbench: imported repro from {where}, "
                         f"not from {src}")
    # Import everything set-up touches now, so the first set-up is not
    # charged for module imports.
    import repro.algorithms.tc  # noqa: F401
    import repro.datasets.generators  # noqa: F401
    import repro.datasets.named  # noqa: F401
    import repro.engines  # noqa: F401
    import repro.serving  # noqa: F401
    return repro


def host_info() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
    }


def _commit() -> str:
    """The checkout's commit, read from ``.git`` without running git;
    ``"unknown"`` for an exported tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
def one_pass(workload, inputs: dict, traced: bool):
    from perfbench.layers import install_layers, layer_values
    from perfbench.trace import Tracer
    from perfbench.workloads import install_probes

    tr = Tracer()
    with tr:
        install_probes(tr)
        if traced:
            install_layers(tr)
        setups: list[float] = []
        leaked = 0.0
        while True:
            t0 = time.perf_counter()
            state = workload.setup(inputs)
            setups.append(time.perf_counter() - t0)
            if traced or len(setups) >= SETUP_MAX_REPS or (
                len(setups) >= SETUP_MIN_REPS and sum(setups) >= SETUP_MIN_S
            ):
                break
            leaked += workload.teardown(state).get("leaked_segments", 0.0)
            del state
            gc.collect()  # plans and matrices reference each other
        # Set-up's own launches (worker warm-up) are not per-query data.
        tr.samples.clear()
        tr.marks.clear()
        t2 = time.perf_counter()
        try:
            out = workload.run(state)
        except BaseException:
            workload.teardown(state)  # stop and reap the workers
            raise
        t3 = time.perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    closing = workload.teardown(state)
    closing["leaked_segments"] = closing.get("leaked_segments", 0.0) + leaked
    p = workload.collect(state, out, tr)
    p.setups, p.wall_s = setups, t3 - t2
    p.layer.update(closing)
    if traced:
        p.layer = layer_values(tr, p.layer)
    return p, state, tr, rss_mb


def measure(workload, seed: int, seconds: float, trace: bool):
    """Run passes until the window is used; returns passes, run facts
    and the first traced pass's tracer."""
    from perfbench.oracle import Oracle

    oracle = None
    passes = []
    problems: list[str] = []
    spans_tracer = None
    peak_rss = 0.0
    used = 0.0
    i = 0
    inputs = workload.prepare(seed)
    while used < seconds or i < MIN_PASSES:
        traced = trace and i % 2 == 1
        p, state, tr, rss = one_pass(workload, inputs, traced)
        if i == 0:
            peak_rss = rss  # before the oracle runs
            oracle = Oracle(workload, seed)
        used += sum(p.setups) + p.wall_s
        wrong = oracle.check(state, p.answers, first=i == 0)
        p.failed += wrong
        p.traced = traced
        if p.layer.get("leaked_segments", 0.0):
            problems.append(f"pass {i}: {p.layer['leaked_segments']:.0f} "
                            "shared-memory segments leaked")
        if traced and spans_tracer is None:
            spans_tracer = tr
        p.answers = []
        passes.append(p)
        print(f"  pass {i}{' traced' if traced else ''}: setup "
              f"{statistics.median(p.setups):.4f} s (median of "
              f"{len(p.setups)}), wall {p.wall_s:.3f} s, "
              f"{p.attempted} attempted, {p.failed} failed", flush=True)
        del state
        gc.collect()
        i += 1
    problems += oracle.problems
    print(f"  oracle: every answer checked; "
          f"{oracle.standalone_checked} standalone re-runs")
    base = passes[0].fingerprint
    for j, p in enumerate(passes[1:], 1):
        if p.fingerprint != base:
            problems.append(f"semantic drift: pass {j} modeled result "
                            f"{p.fingerprint} != pass 0 {base}")
    return passes, peak_rss, problems, spans_tracer


def _percentile(passes, pct: float) -> float:
    """Percentile of the per-query samples pooled over passes.  Pooling
    (rather than a median of per-pass percentiles) keeps a tail that
    sits between two launch clusters from flipping with each pass."""
    import numpy as np

    return float(np.percentile(
        [s for p in passes for s in p.query_wall_ms], pct))


def end_to_end(passes, peak_rss: float) -> tuple[dict, int]:
    untraced = [p for p in passes if not p.traced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    values = {
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "queries_per_s": statistics.median(
            p.attempted / p.wall_s for p in untraced),
        "query_wall_ms_p50": _percentile(untraced, 50),
        "query_wall_ms_p90": _percentile(untraced, 90),
        "setup_s": statistics.median(s for p in untraced for s in p.setups),
        "peak_rss_mb": peak_rss,
        "answered_fraction": (attempted - failed) / attempted,
    }
    return values, sum(len(p.query_wall_ms) for p in untraced)


def per_layer(passes) -> dict:
    from perfbench.layers import PER_LAYER

    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    values = {}
    for name, _ in PER_LAYER:
        vals = [p.layer.get(name, 0.0) for p in traced]
        values[name] = statistics.median(vals)
    t_wall = statistics.median(p.wall_s for p in traced)
    u_wall = statistics.median(p.wall_s for p in untraced)
    values["modeled_ms"] = passes[0].fingerprint["modeled_ms"]
    values["slo_attainment"] = passes[0].fingerprint["slo_attainment"]
    values["trace.traced_wall_s"] = t_wall
    values["trace.untraced_wall_s"] = u_wall
    values["trace.overhead_s"] = t_wall - u_wall
    return values


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    from perfbench.layers import PER_LAYER
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    host = host_info()
    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  why: {workload.why}")
    print(f"  host: {json.dumps(host, sort_keys=True)}")
    if workload.name.startswith("serve-"):
        print("  arrivals: open-loop Poisson schedule in modeled time, "
              "fixed before the timed phase; wall clock measures how "
              "fast the host drains it (no generator can run late)")

    passes, peak_rss, problems, spans_tracer = measure(
        workload, args.seed, args.seconds, bool(args.trace))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    fp_key = f"{workload.name}:{args.seed}"
    fp_path = OUT / "fingerprints.json"
    known = json.loads(fp_path.read_text()) if fp_path.is_file() else {}
    fingerprint = passes[0].fingerprint
    if fp_key in known and known[fp_key] != fingerprint:
        problems.append(f"semantic drift: {fp_key} modeled result "
                        f"{fingerprint} != earlier run {known[fp_key]}")

    if args.trace:
        values = per_layer(passes)
        units = dict(PER_LAYER)
    else:
        values, n_samples = end_to_end(passes, peak_rss)
        units = dict(END_TO_END)
        print(f"  query_wall_ms percentiles over {n_samples} per-query "
              f"samples pooled over passes ({n_samples // 10} beyond p90)")
    for name, unit in units.items():
        print(f"  {name:<44} {values[name]:>16.6g} {unit}")
    print(f"  modeled fingerprint: {json.dumps(fingerprint)}")

    correct = failed == 0 and not problems
    for msg in problems:
        print(f"  PROBLEM: {msg}")
    if correct:
        OUT.mkdir(exist_ok=True)
        known[fp_key] = fingerprint
        fp_path.write_text(json.dumps(known, indent=1, sort_keys=True))
        record = {
            "workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "held_out": args.seed == HELD_OUT_SEED,
            "passes": len(passes), "host": host, "metrics": values,
            "fingerprint": fingerprint,
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        if spans_tracer is not None:
            spans_tracer.dump(
                str(OUT / f"spans-{workload.name}-{args.seed}.json.gz"))
    else:
        print("  run NOT recorded: a benchmark run must answer every "
              "query correctly and repeat its modeled results")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0 if correct else 1


def stop_children() -> None:
    """Stop and reap every process the run started, on every path out.

    ``WorkerPool.close`` joins the workers on the normal path; a path
    that failed past it leaves the pool to ``__del__``, and anything
    still alive after that is terminated here.  The shared-memory
    export also starts the ``multiprocessing`` resource tracker, which
    otherwise exits only after this process has gone; it is stopped
    and waited for explicitly."""
    import multiprocessing
    from multiprocessing import resource_tracker

    gc.collect()
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        sys.exit(main())
    finally:
        stop_children()
