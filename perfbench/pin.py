#!/usr/bin/env python3
"""Record the pinned answers of every pool instance in ``pins.json``.

The pins are the correctness gate of the benchmark: they hold the answers of
the library at the commit that defined the benchmark.  Re-run this only when
the pools themselves change, never to make a failing answer pass.  It also
records each kind's pool order by op time at nominal machine speed (see
``refkernel``), which the schedule uses to spread every run evenly over easy
and hard instances.

Usage: python3 perfbench/pin.py [KIND ...]
    Re-pins the named kinds (all of them when none is named; about four
    minutes) and keeps the pins of the others.
"""

from __future__ import annotations

import json
import os
import sys

from checkout import HERE, use_checkout_source

use_checkout_source()

import refkernel  # noqa: E402
import workloads  # noqa: E402

PINS = os.path.join(HERE, "pins.json")


def main(names: list[str]) -> None:
    unknown = set(names) - set(workloads.KINDS)
    if unknown:
        sys.exit(f"unknown kinds: {', '.join(sorted(unknown))}")
    pins = {}
    if names:
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    for name, kind in workloads.KINDS.items():
        if names and name not in names:
            continue
        answers, op_s = [], []
        with refkernel.Sampler() as sampler:
            for i in range(kind.pool):
                sampler.start()
                answers.append(kind.op(i))
                op_s.append(sampler.stop().nominal)
        order = sorted(range(kind.pool), key=lambda i: (op_s[i], i))
        pins[name] = {"answers": answers, "order": order}
        print(f"{name}: {kind.pool} instances, {sum(op_s):.1f} s at nominal speed", flush=True)
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=None, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
