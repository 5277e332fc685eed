"""Command-line front end: generation, rank computation, certification,
witness oracles, spanoid checks, and CSV experiment sweeps.

Exit codes: 0 on success, 1 on a violated verification, 2 on usage errors,
malformed input, and inputs that exhaust the recursion limit or memory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import engine, families, gf, spanoid, stencil, tensor
from .families import Family, FamilyParams
from .stencil import is_json_int, is_json_int_list

CSV_COLUMNS = [
    "family",
    "n",
    "param",
    "delta",
    "seed",
    "trial",
    "vrk_lb",
    "vrk_ub",
    "exact",
    "tensor_cert",
    "minrank_p",
    "minrank_val",
    "ms",
]


class SpecError(stencil.StencilError):
    """Malformed experiment spec."""


#: The keys of a spec document besides "family": the ``ExperimentSpec``
#: field each sets, its check and its expected type.
_SPEC_KEYS = {
    "n": ("n_values", is_json_int_list, "a list of integers"),
    "param": ("param_values", is_json_int_list, "a list of integers"),
    "trials": ("trials", is_json_int, "an integer"),
    "seed": ("seed", is_json_int, "an integer"),
    "budget_ms": ("budget_ms", is_json_int, "an integer"),
    "field": ("field_p", is_json_int, "an integer"),
    "delta": ("delta", lambda x: is_json_int(x) or isinstance(x, float), "a number"),
    "csv": ("csv_path", lambda x: isinstance(x, str), "a path"),
}


@dataclass
class ExperimentSpec:
    """A sweep over family parameters with per-point trial counts."""

    family: Family
    n_values: list[int]
    param_values: list[int]
    delta: float | None = None
    trials: int = 1
    seed: int = 0
    budget_ms: int = 5000
    field_p: int | None = None
    csv_path: str | None = None

    def __post_init__(self) -> None:
        if not self.n_values or not self.param_values:
            raise SpecError("empty sweep")
        if self.trials < 1:
            raise SpecError("trials must be >= 1")
        if self.budget_ms < 0:
            raise SpecError("budget_ms must be >= 0")
        if self.seed < 0:
            raise SpecError("seed must be >= 0")
        p = self.field_p
        if p is not None and not (p <= gf.MAX_PRIME and gf.is_prime(p)):
            raise SpecError(f"field {p} is not a prime up to {gf.MAX_PRIME}")

    @staticmethod
    def from_json(doc: dict) -> "ExperimentSpec":
        """Read a spec document; raises ``SpecError`` when it does not have
        the shape of one."""
        if not isinstance(doc, dict):
            raise SpecError("experiment spec must be a JSON object")
        doc = {key: value for key, value in doc.items() if value is not None}
        if doc.get("family") not in {f.value for f in Family}:
            raise SpecError(f"spec 'family' must be one of {', '.join(f.value for f in Family)}")
        for key, (_, ok, kind) in _SPEC_KEYS.items():
            if key in doc and not ok(doc[key]):
                raise SpecError(f"spec {key!r} must be {kind}")
        # Only the keys present are passed, so the dataclass holds the
        # defaults; a sweep without "n" or "param" is empty.
        given = {_SPEC_KEYS[key][0]: value for key, value in doc.items() if key in _SPEC_KEYS}
        return ExperimentSpec(
            Family(doc["family"]),
            given.pop("n_values", None),
            given.pop("param_values", None),
            **given,
        )


def _trial_seed(base: int, point: int, trial: int) -> int:
    return int(np.random.SeedSequence([base, point, trial]).generate_state(1)[0])


def run_experiment(spec: ExperimentSpec) -> list[dict]:
    """One CSV row per (sweep point, trial), in deterministic order.

    Infeasible parameter combinations are reported in the row and the run
    continues.
    """
    rows: list[dict] = []
    point = 0
    for n in spec.n_values:
        for param in spec.param_values:
            for trial in range(spec.trials):
                seed = _trial_seed(spec.seed, point, trial)
                row = {c: "" for c in CSV_COLUMNS}
                row.update(
                    family=spec.family.value,
                    n=n,
                    param=param,
                    delta="" if spec.delta is None else spec.delta,
                    seed=seed,
                    trial=trial,
                )
                t0 = time.monotonic()
                try:
                    params = FamilyParams(
                        spec.family, n, param, delta=spec.delta, seed=seed
                    )
                    H = families.generate(params)
                except families.FamilyParamError as exc:
                    row["vrk_lb"] = f"error: {exc}"
                    rows.append(row)
                    continue
                res = engine.visible_rank_exact(
                    H, time_budget=spec.budget_ms / 1000.0
                )
                row["vrk_lb"] = res.lower_bound
                row["vrk_ub"] = res.upper_bound
                row["exact"] = str(res.exact).lower()
                if spec.family in (Family.DRGP, Family.TENSOR_GAP):
                    _, identity = tensor.diagonal_tensor_certificate(H, param)
                    row["tensor_cert"] = str(identity).lower()
                if spec.field_p is not None:
                    p = spec.field_p
                    if (p - 1) ** len(gf.free_stars(H)) <= 100_000:
                        mres = gf.minrank_bruteforce(H, p)
                        row["minrank_p"] = p
                        row["minrank_val"] = mres.value
                row["ms"] = round((time.monotonic() - t0) * 1000, 1)
                rows.append(row)
            point += 1
    if spec.csv_path:
        with open(spec.csv_path, "w", newline="", encoding="ascii") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    return rows


# ---------------------------------------------------------------------------
# Subcommands


def _family_param(args) -> tuple[Family, int | list[int]]:
    """The family and the value of its parameter flag."""
    if args.family is None or args.n in (None, []):
        raise families.FamilyParamError(f"{args.command} needs --family and --n")
    fam = Family(args.family)
    flag = {Family.LRC: "ell", Family.LCC: "q"}.get(fam, "t")
    value = getattr(args, flag)
    if value in (None, []):
        raise families.FamilyParamError(f"{fam.value} requires --{flag}")
    return fam, value


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def cmd_gen(args) -> int:
    fam, param = _family_param(args)
    params = FamilyParams(fam, args.n, param, delta=args.delta, seed=args.seed)
    H = families.generate(params)
    report = families.validate_family(H, params)
    if not report:
        print(str(report), file=sys.stderr)
        return 1
    meta = {"family": params.family.value, "n": params.n, "param": params.param,
            "seed": params.seed}
    if args.output:
        stencil.write_stencil(H, args.output)
        print(json.dumps({"written": args.output, **meta}))
    else:
        sys.stdout.write(stencil.to_grid(H))
    return 0


def cmd_vrank(args) -> int:
    H = _read_stencil(args.file)
    res = engine.visible_rank_exact(H, time_budget=args.budget_ms / 1000.0)
    print(res.to_json_str())
    return 0


def cmd_tensor(args) -> int:
    H = _read_stencil(args.file)
    if args.output:
        Hk = tensor.tensor_power(H, args.power)
        stencil.write_stencil(Hk, args.output)
        print(json.dumps({"written": args.output, "rows": Hk.m, "cols": Hk.n}))
        return 0
    # greedy(H)^k bounds level k's printed bounds from below; capping the
    # exponent at 4 x the digit limit keeps it cheap, since 2^4 > 10.
    digits, k = getattr(sys, "get_int_max_str_digits", lambda: 0)(), args.power
    g = engine.greedy_lower_bound(H)[0]
    if digits and k > 0 and g ** min(k, 4 * digits) >= 10**digits:
        return _usage_error(
            f"the report cannot be printed: its level-{k} bound is at least {g}^{k}, "
            f"past the limit of {digits} digits for integer string conversion"
        )
    est = tensor.capacity_lower_bound(
        H, args.power, time_budget=args.budget_ms / 1000.0
    )
    try:
        report = json.dumps(est.to_json())
    except ValueError as exc:  # a level's bound past the int-to-str digit limit
        return _usage_error(f"the report cannot be printed: {exc}")
    print(report)
    return 0


def cmd_certify(args) -> int:
    H = _read_stencil(args.file)
    sub, identity = tensor.diagonal_tensor_certificate(H, args.power)
    print(
        json.dumps(
            {
                "power": args.power,
                "identity": identity,
                "certified_vrk_power_lower_bound": H.n if identity else None,
            }
        )
    )
    return 0 if identity else 1


def cmd_minrank(args) -> int:
    H = _read_stencil(args.file)
    time_budget = None if args.budget_ms is None else args.budget_ms / 1000.0
    res = gf.minrank_bruteforce(H, args.field, budget=args.budget, time_budget=time_budget)
    print(
        json.dumps(
            {
                "p": res.p,
                "minrank": res.value,
                "exhaustive": res.exhaustive,
                "witness": res.witness.to_json(),
            }
        )
    )
    return 0


def cmd_witness(args) -> int:
    H = _read_stencil(args.file)
    if args.construct == "stopping-set":
        S = gf.stopping_set(H)
        W = gf.stopping_set_witness(H, args.field, S)
        extra = {"stopping_set": list(S)}
    else:
        W = gf.low_rank_witness(H, args.field)
        d = max((((1 << H.n) - 1) & ~mask).bit_count() for mask in H.rows) if H.m else 0
        extra = {"max_row_zeros": d}
    ok, _ = gf.validate_witness(W)
    print(json.dumps({**W.to_json(), "rank": gf.gf_rank(W), **extra}))
    return 0 if ok else 1


@contextlib.contextmanager
def _reading(path: str) -> Iterator[None]:
    """Raise a ``StencilError`` naming the file ``path`` for an error of
    reading it as ASCII or of parsing it as JSON."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise stencil.StencilError(
            f"{path} is not ASCII (byte {exc.object[exc.start]:#x} at offset {exc.start})"
        ) from None
    except json.JSONDecodeError as exc:
        raise stencil.StencilError(f"{path} is not valid JSON ({exc})") from None


def _read_json(path: str):
    """The JSON document in the file ``path``, read as ``_reading`` reads it."""
    with _reading(path), open(path, "r", encoding="ascii") as fh:
        return json.loads(fh.read())


def _read_stencil(path: str) -> stencil.Stencil:
    """``stencil.read_stencil``, its decoding errors raised as ``_reading``
    raises them."""
    with _reading(path):
        return stencil.read_stencil(path)


def cmd_spanoid(args) -> int:
    S = spanoid.SymmetricSpanoid.from_json(_read_json(args.file))
    if args.action == "rank":
        res = spanoid.spanoid_rank(S)
        print(
            json.dumps(
                {
                    "rank": res.value,
                    "basis": sorted(res.basis),
                    "exhaustive": res.exhaustive,
                }
            )
        )
        return 0
    report = spanoid.rank_nullity_check(S, check_columns=args.columns)
    print(json.dumps(report.to_json()))
    ok = report.identity_holds and report.column_equivalence_holds in (None, True)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    H = _read_stencil(args.file)
    if args.certificate:
        doc = _read_json(args.certificate)
        if isinstance(doc, dict) and "certificate" in doc:
            doc = doc["certificate"]
        cert = engine.DiagonalCertificate.from_json(doc)
        ok = cert.verify(H)
        print(json.dumps({"certificate_valid": ok, "size": cert.size}))
        return 0 if ok else 1
    if args.family:
        fam, param = _family_param(args)
        params = FamilyParams(fam, args.n, param, delta=args.delta, seed=args.seed)
        report = families.validate_family(H, params)
        print(json.dumps({"valid": bool(report), "detail": str(report)}))
        return 0 if report else 1
    return _usage_error("verify needs --certificate or --family")


def cmd_experiment(args) -> int:
    if args.spec:
        doc = _read_json(args.spec)
    else:
        fam, param_values = _family_param(args)
        doc = {"family": fam.value, "n": args.n, "param": param_values, "delta": args.delta,
               "trials": args.trials, "seed": args.seed, "budget_ms": args.budget_ms,
               "field": args.field}
    spec = ExperimentSpec.from_json(doc)
    if args.csv:
        spec.csv_path = args.csv
    rows = run_experiment(spec)
    if not spec.csv_path:
        writer = csv.DictWriter(sys.stdout, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    else:
        print(json.dumps({"rows": len(rows), "csv": spec.csv_path}))
    return 0


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrank", description="Visible rank toolkit for 0/star stencils."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_flags(p, list_valued=False):
        conv = _int_list if list_valued else int
        p.add_argument("--family", choices=[f.value for f in Family])
        p.add_argument("--n", type=conv)
        p.add_argument("--ell", type=conv)
        p.add_argument("--q", type=conv)
        p.add_argument("--t", type=conv)
        p.add_argument("--delta", type=float)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen", help="generate a family stencil")
    add_family_flags(p)
    p.add_argument("-o", "--output", help="output .stn or .json path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("vrank", help="visible rank of a stencil file")
    p.add_argument("file")
    p.add_argument("--budget-ms", type=int, default=10_000)
    p.set_defaults(func=cmd_vrank)

    p = sub.add_parser("tensor", help="tensor powers: materialize or bound")
    p.add_argument("file")
    p.add_argument("--power", type=int, required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--budget-ms", type=int, default=10_000)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("certify", help="implicit diagonal tensor certificate")
    p.add_argument("file")
    p.add_argument("--power", type=int, required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("minrank", help="brute-force min-rank over GF(p)")
    p.add_argument("file")
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--budget", type=int, default=2_000_000)
    p.add_argument("--budget-ms", type=int, help="time budget; none by default")
    p.set_defaults(func=cmd_minrank)

    p = sub.add_parser("witness", help="construct an explicit witness")
    p.add_argument("file")
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--construct", choices=["low-rank", "stopping-set"], default="low-rank")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("spanoid", help="symmetric spanoid rank / checks")
    p.add_argument("action", choices=["rank", "check"])
    p.add_argument("file")
    p.add_argument("--columns", action="store_true", help="check column equivalence")
    p.set_defaults(func=cmd_spanoid)

    p = sub.add_parser("verify", help="verify a certificate or family membership")
    p.add_argument("file")
    p.add_argument("--certificate")
    add_family_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="run a sweep, emit CSV")
    p.add_argument("--spec", help="JSON experiment spec file")
    add_family_flags(p, list_valued=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--budget-ms", type=int)
    p.add_argument("--field", type=int)
    p.add_argument("--csv")
    # A flag left out takes the ExperimentSpec default, as a spec key does.
    p.set_defaults(func=cmd_experiment, seed=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("budget_ms", "budget"):
            if (getattr(args, flag, None) or 0) < 0:
                raise stencil.StencilError(f"--{flag.replace('_', '-')} must be >= 0")
        return args.func(args)
    except (stencil.StencilError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input too deep (Python recursion limit exceeded)", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
