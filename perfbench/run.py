#!/usr/bin/env python3
"""The vrank benchmark: one workload, one process, one thread, one
closed-loop client (the next op starts when the previous one is checked).

Usage:
    python3 perfbench/run.py --workload exact_sweep --seed 1 --seconds 36 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):
    exact_sweep   generate -> visible_rank_exact -> certificate replay ->
                  diagonal tensor certificate, on DRGP-64/32, tensor-gap-32,
                  LCC-64 and LRC-32
    bounds_sweep  generate -> validate_family -> visible_rank_bounds ->
                  certificate replay -> diagonal tensor certificate, on
                  DRGP-512/256, LCC-128, tensor-gap-128 and LRC-256
    oracles       minrank_bruteforce over GF(3), rank_nullity_check on random
                  spanoids, capacity_lower_bound on DRGP-4..6

Seeds: the default seed is 1; seed 20211027 is held out, so that a change
tuned on other seeds can confirm its gain there.  The seed alone picks which
pinned pool instances a run draws and in which order (see
``workloads.Schedule``).

With ``--trace 0`` the run measures ops for ``--seconds`` (whole cycles of the
workload's mix) and reports the end-to-end metrics.  Op times are given at
nominal machine speed: a fixed reference kernel runs every 20 ms inside the
ops (``refkernel.py``), and each op's wall time, without those chunks, is
divided by the slowdown they show against their nominal time.  On a shared
2-vCPU host the same op runs up to twice as fast in one minute as in the
next; this correction cuts the spread of a run's figures about threefold.
``ops_per_s`` counts op time only.  The wall-clock figures are printed beside
them.  ``setup_s`` is the median over seven fresh processes of the
wall-clock time from process start to the point where the first timed op
would begin (interpreter, imports, pins, schedule).

With ``--trace 1`` it runs the ops of half the time untraced, then the same
ops again with every layer's public functions wrapped (``spans.py``), reports
per-op self times and counts of each layer and the tracing overhead, and
writes the spans to ``perfbench/out/``.

Every answer is checked against ``pins.json``; every certificate is replayed.
The last line of standard output is the result object; earlier lines carry
the machine facts, the tail percentile with its sample count, the wall-clock
figures, the median slowdown, and per-kind figures.  The exit code is 1 when any op failed, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from checkout import HERE, die, use_checkout_source

use_checkout_source()

import numpy  # noqa: E402

import refkernel  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
SETUP_TIMEOUT_S = 60
DEFAULT_SEED = 1
OUT_DIR = os.path.join(HERE, "out")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (how setup_s is timed)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def load_pins() -> dict:
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        return json.load(fh)


def setup(workload_name: str, seed: int):
    """Everything a run does before its first timed op, after the imports."""
    if workload_name not in workloads.WORKLOADS:
        die(f"unknown workload {workload_name!r}; choose from {', '.join(workloads.WORKLOADS)}")
    pins = load_pins()
    workload = workloads.WORKLOADS[workload_name]
    order = {name: pins[name]["order"] for name in set(workload.cycle)}
    return workloads.Schedule(workload, seed, order), pins


def measure_setup(args) -> list[float]:
    """Seconds from process start to ready for the first op, in fresh
    processes.  These stay wall-clock times: set-up is mostly imports, and
    the reference kernel, run beside or inside a probe, tracks its speed
    worse than no correction at all."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            try:
                _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                die("setup probe did not exit")
        if proc.returncode != 0 or line.strip() != "ready":
            die(f"setup probe failed: {err.strip()}")
    return samples


class Loop:
    """Closed-loop client: runs whole cycles, checks every answer.

    ``latency`` holds (kind, wall seconds, nominal seconds) per op.  Given a
    ``refkernel.Sampler``, an op's wall time leaves out the reference chunks
    run inside it, and its nominal time is that divided by the slowdown the
    chunks show; without one, both are its wall time.

    After each op, outside its timing, the loop collects garbage: the search
    leaves its memo in a reference cycle, and without a collection here the
    heap a later op starts from, and so ``peak_rss_mb``, depends on which
    instances the seed drew before it (140-158 MB on bounds_sweep against
    138-142 MB with it).
    """

    def __init__(self, schedule, pins):
        self.schedule = schedule
        self.pins = pins
        self.latency: list[tuple[str, float, float]] = []
        self.attempted = 0
        self.failed = 0

    def run_op(self, kind, i: int) -> None:
        self.attempted += 1
        try:
            answer = kind.op(i)
        except workloads.OpFailure as exc:
            self.fail(kind, i, str(exc))
            return
        except Exception:  # an op that raises counts as failed; keep measuring
            self.fail(kind, i, traceback.format_exc())
            return
        expected = self.pins[kind.name]["answers"][i]
        if json.loads(json.dumps(answer)) != expected:
            self.fail(kind, i, f"answer {answer} differs from pinned {expected}")

    def fail(self, kind, i: int, why: str) -> None:
        self.failed += 1
        print(f"perfbench: op {kind.name}[{i}] failed: {why}", file=sys.stderr)

    def cycles(self, seconds: float | None = None, count: int | None = None,
               tracer=None, sampler: refkernel.Sampler | None = None) -> int:
        """Run cycles for ``seconds`` (whole cycles) or exactly ``count`` of
        them; return the number of cycles run."""
        deadline = time.perf_counter() + seconds if seconds is not None else None
        c = 0
        while (count is None or c < count):
            for kind, i in self.schedule.cycle(c):
                if sampler is not None:
                    sampler.start()
                    self.run_op(kind, i)
                    w = sampler.stop()
                    self.latency.append((kind.name, w.wall, w.nominal))
                else:
                    t0 = time.perf_counter()
                    if tracer is None:
                        self.run_op(kind, i)
                    else:
                        with tracer.span(spans.ROOT_SPAN):
                            self.run_op(kind, i)
                    wall = time.perf_counter() - t0
                    self.latency.append((kind.name, wall, wall))
                gc.collect()
            c += 1
            if deadline is not None and time.perf_counter() >= deadline:
                break
        return c


def machine_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        model = platform.processor()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def latency_figures(latency, tail_pct: float) -> dict[str, float]:
    """Throughput, median and tail latency of ops; ``latency`` holds op
    seconds.  Throughput counts op time only, not the reference kernel's."""
    ms = numpy.array(latency) * 1000
    return {"ops_per_s": len(ms) * 1000 / float(ms.sum()),
            "op_ms_p50": float(numpy.median(ms)),
            "op_ms_tail": float(numpy.percentile(ms, tail_pct))}


def end_to_end(loop: Loop, workload, setup: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, op times at nominal machine speed, and beside
    them the same figures in wall-clock time and the tail's sample counts."""
    nominal = latency_figures([s for _, _, s in loop.latency], workload.tail_pct)
    wall = latency_figures([s for _, s, _ in loop.latency], workload.tail_pct)
    wall["setup_s"] = nominal["setup_s"] = statistics.median(setup)
    units = {"ops_per_s": "op/s", "op_ms_p50": "ms", "op_ms_tail": "ms", "setup_s": "s"}
    metrics = {k: (v, units[k]) for k, v in nominal.items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    samples = len(loop.latency)
    extra = {
        "tail": {"percentile": workload.tail_pct, "samples": samples,
                 "samples_beyond": sum(s > nominal["op_ms_tail"] / 1000 for _, _, s in loop.latency)},
        "wall_clock": wall,
        "slowdown_median": statistics.median(w / s for _, w, s in loop.latency),
    }
    return metrics, extra


def per_kind(loop: Loop) -> dict:
    out: dict[str, list[float]] = {}
    for name, _, s in loop.latency:
        out.setdefault(name, []).append(s * 1000)
    return {name: {"ops": len(v), "ms_median": statistics.median(v), "ms_max": max(v)}
            for name, v in out.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    schedule, pins = setup(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    workload = schedule.workload
    loop = Loop(schedule, pins)
    info = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine_facts()}
    if args.trace == 0:
        setup_samples = measure_setup(args)
        with refkernel.Sampler() as sampler:
            info["cycles"] = loop.cycles(seconds=args.seconds, sampler=sampler)
        metrics, extra = end_to_end(loop, workload, setup_samples)
        info.update(extra, setup_samples_s=setup_samples)
    else:
        cycles = loop.cycles(seconds=args.seconds / 2)
        plain = sum(s for _, _, s in loop.latency)
        tracer = spans.Tracer()
        with spans.patched(tracer):
            loop.cycles(count=cycles, tracer=tracer)
        spans.assert_unpatched()
        traced = sum(s for _, _, s in loop.latency) - plain
        metrics = spans.layer_metrics(tracer)
        metrics["trace_overhead_frac"] = (traced / plain - 1, "ratio")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans_{workload.name}_{args.seed}.npz")
        tracer.save(path)
        info.update(cycles=cycles, spans=len(tracer.name), spans_file=os.path.relpath(path))
    info["failed_frac"] = loop.failed / loop.attempted
    info["kinds"] = per_kind(loop)
    print(json.dumps(info))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
