#!/usr/bin/env python3
"""Calibrate small-vrank thresholds for the random group-structured families.

Computes the exact visible rank of gen_drgp(n, 2, seed) at n in {16, 32, 64}
over a block of seeds and reports T(n) = observed max + 2, the thresholds the
acceptance suite pins for fresh seeds.  Also calibrates gen_tensor_gap(32, 3)
at tensor levels 1 and 2 (level 2 via the sound power bound n * vrk(H), since
the materialized square is far over the entry limit).

Usage: python3 scripts/calibrate_drgp.py [--seeds 50] [--seed-base 0]
"""

import argparse
import json
import os
import sys
import time

# Import vrank from this checkout's source, installed or not.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from vrank.engine import visible_rank_exact  # noqa: E402
from vrank.families import gen_drgp, gen_tensor_gap  # noqa: E402


def calibrate(seeds: int, seed_base: int) -> dict:
    out: dict = {"drgp": {}, "tensor_gap": {}}
    for n in (16, 32, 64):
        t0 = time.monotonic()
        vals = []
        for s in range(seed_base, seed_base + seeds):
            res = visible_rank_exact(gen_drgp(n, 2, s))
            assert res.exact, f"n={n} seed={s} did not complete"
            vals.append(res.lower_bound)
        out["drgp"][n] = {
            "max": max(vals),
            "threshold": max(vals) + 2,
            "mean": sum(vals) / len(vals),
            "seconds": round(time.monotonic() - t0, 1),
        }
    t0 = time.monotonic()
    lv1 = []
    lv2 = []
    for s in range(seed_base, seed_base + seeds):
        H = gen_tensor_gap(32, 3, s)
        res = visible_rank_exact(H)
        assert res.exact
        lv1.append(res.lower_bound)
        lv2.append(32 * res.lower_bound)  # sound power upper bound
    out["tensor_gap"] = {
        "level1": {"max": max(lv1), "threshold": max(lv1) + 2},
        "level2_upper": {"max": max(lv2), "threshold": max(lv2) + 64},
        "seconds": round(time.monotonic() - t0, 1),
    }
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--seed-base", type=int, default=0)
    args = ap.parse_args()
    report = calibrate(args.seeds, args.seed_base)
    print(json.dumps(report, indent=2))
    t = {n: report["drgp"][n]["threshold"] for n in (16, 32, 64)}
    growth_ok = t[64] - t[16] <= 3 * (t[32] - t[16]) + 2
    print(f"growth check: T(64)-T(16)={t[64]-t[16]} vs "
          f"3*(T(32)-T(16))+2={3*(t[32]-t[16])+2} -> {'OK' if growth_ok else 'FAIL'}")


if __name__ == "__main__":
    main()
