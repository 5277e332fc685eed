#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on a tiny input set for a few seconds.

Checks that
1. both modes of the command print, as their last line, a result with every
   metric ``BENCHMARK.json`` names and the unit it names (the metric set does
   not depend on the workload, so the cheapest one, bounds_sweep, stands in);
2. a deliberately wrong pinned answer is caught: the op counts as failed, the
   result reads ``correct: false`` and the run exits non-zero;
3. per traced op, the self times of the layer spans sum to no more than the
   op's wall time, and no self time is negative;
4. the reference sampler takes samples inside a timed stretch, leaves their
   time out of it, and restores the ``SIGALRM`` handler on exit.

Usage: python3 perfbench/smoke.py     (exits non-zero on the first failure)
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time

from checkout import HERE, ROOT, use_checkout_source

use_checkout_source()

import numpy as np  # noqa: E402

import refkernel  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: One op of each family of op, drawn from the four cheapest pool instances.
TINY = workloads.Workload("tiny", ("drgp32", "lrc256b", "minrank", "spanoid", "capacity"), 90.0)


def check(cond: bool, what: str) -> None:
    if not cond:
        sys.exit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}")


def last_result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metric_names() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "bounds_sweep",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, check=False)
        check(proc.returncode == 0, f"--trace {trace} exits 0 ({proc.stderr.strip()[-300:]})")
        result = last_result(proc.stdout)
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              f"--trace {trace} last line has exactly the four result keys")
        want = {m["name"]: m["unit"] for m in bench[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == want, f"--trace {trace} prints every {group} metric with its unit")


def tiny_loop(pins: dict) -> run.Loop:
    order = {name: pins[name]["order"][:4] for name in set(TINY.cycle)}
    return run.Loop(workloads.Schedule(TINY, 1, order), pins)


def check_wrong_pin() -> None:
    pins = run.load_pins()
    bad = json.loads(json.dumps(pins))
    for answer in bad["lrc256b"]["answers"]:
        answer["lower"] += 1
    run.load_pins = lambda: bad
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", "bounds_sweep", "--seconds", "0.1"])
    run.load_pins = lambda: pins
    result = last_result(out.getvalue())
    check(code == 1 and result["correct"] is False and result["failed"] >= 1,
          f"a wrong pinned answer fails the run (exit {code}, {result['failed']} failed)")


def check_self_times() -> None:
    tracer = spans.Tracer()
    loop = tiny_loop(run.load_pins())
    with spans.patched(tracer):
        loop.cycles(seconds=1.0, tracer=tracer)
    spans.assert_unpatched()
    check(loop.failed == 0, f"{loop.attempted} tiny ops pass their checks")
    name = np.frombuffer(tracer.name, dtype=np.int64)
    root = name == tracer.names.index(spans.ROOT_SPAN)
    self_s = tracer.self_times()
    op_of_span = np.cumsum(root) - 1
    wall = (np.frombuffer(tracer.end) - np.frombuffer(tracer.start))[root]
    layers = np.bincount(op_of_span[~root], weights=self_s[~root], minlength=len(wall))
    check(len(set(tracer.names)) > 10, f"{len(tracer.names)} span names recorded")
    check(bool((self_s >= -1e-9).all()), "no span has a negative self time")
    check(bool((layers <= wall + 1e-9).all()),
          f"per op, layer self times sum to no more than its wall time ({len(wall)} ops)")


def check_sampler() -> None:
    handler = signal.getsignal(signal.SIGALRM)
    with refkernel.Sampler() as sampler:
        sampler.start()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        w = sampler.stop()
    check(w.inside > 0 and w.wall < w.elapsed and w.slowdown > 0,
          f"the sampler ran chunks inside a 0.3 s stretch ({w.inside * 1000:.1f} ms)")
    check(signal.getsignal(signal.SIGALRM) is handler, "the SIGALRM handler is restored")


def main() -> None:
    check_metric_names()
    check_wrong_pin()
    check_self_times()
    check_sampler()
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
