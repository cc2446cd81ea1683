"""Command-line interface.

Exit codes: 0 when everything requested passed, 1 when a requested check
failed, 2 on input or usage errors.  Reports go to stdout, diagnostics to
stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import _FAMILIES, __version__
from .category_data import gauge_transform, random_gauge
from .errors import MtcatError, ParseError, SchemaError, ValidationError
from .fusion_ring import fp_dimensions, verlinde_coefficients
from .io import (
    CHECK_NAMES,
    all_pass,
    load,
    report_to_json,
    report_to_text,
    run_report,
    save,
)
from .ribbon_modular import check_modular, quantum_dimensions, s_matrix_unnormalized


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtcat",
        description="verify and compute the finite data of ribbon/modular tensor categories",
    )
    parser.add_argument("--version", action="version", version=f"mtcat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural validation of a category file")
    p.add_argument("file")

    p = sub.add_parser("verify", help="run coherence/modularity checks")
    p.add_argument("file")
    p.add_argument(
        "--checks",
        default=",".join(CHECK_NAMES),
        help=f"comma-separated subset of: {','.join(CHECK_NAMES)}",
    )
    p.add_argument("--tol", type=float, default=1e-9, help="pass/fail tolerance")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit the report as JSON")
    fmt.add_argument("--text", action="store_true", help="emit a text table (default)")

    p = sub.add_parser("dims", help="categorical and Perron dimensions")
    p.add_argument("file")

    p = sub.add_parser("smatrix", help="print the S-matrix")
    p.add_argument("file")
    p.add_argument("--normalized", action="store_true")

    p = sub.add_parser("verlinde", help="recover fusion rules from the S-matrix")
    p.add_argument("file")

    p = sub.add_parser("gen", help="generate a built-in category")
    p.add_argument("family", choices=_FAMILIES)
    p.add_argument("--level", type=int, help="level k for su2_level")
    p.add_argument("--n", type=int, help="group order for pointed_zn")
    p.add_argument("--q", type=int, help="quadratic form exponent for pointed_zn")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("gauge", help="apply a seeded random basis change")
    p.add_argument("file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep both
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (ParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"invalid data: {exc}", file=sys.stderr)
        return 1 if args.command == "validate" else 2
    except MtcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "validate":
        data = load(args.file)  # raises on anything validate_ring or validate_symbols would list
        print(f"{data.name or args.file}: {data.ring.size} labels")
        print("ring invariants: ok")
        print("symbol tables:   ok")
        return 0

    if args.command == "verify":
        data = load(args.file)
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
        report = run_report(data, checks, tolerance=args.tol)
        print(report_to_json(report) if args.json else report_to_text(report))
        return 0 if all_pass(report) else 1

    if args.command == "dims":
        data = load(args.file)
        dims = quantum_dimensions(data)
        fp = fp_dimensions(data.ring)
        print(f"{'label':<12} {'dim':>22} {'fp_dim':>14}")
        for i, name in enumerate(data.ring.names):
            d = dims[i]
            d_s = f"{d.real:.10f}" if abs(d.imag) < 5e-13 else f"{d:.10f}"
            print(f"{name:<12} {d_s:>22} {fp[i]:>14.10f}")
        return 0

    if args.command == "smatrix":
        data = load(args.file)
        if args.normalized:
            rep = check_modular(data)
            if rep.s_norm is None:
                print(
                    f"cannot normalize: verdict is {rep.verdict}",
                    file=sys.stderr,
                )
                return 1
            mat = rep.s_norm.entries
        else:
            mat = s_matrix_unnormalized(data).entries
        for row in mat:
            print("  ".join(_fmt(z) for z in row))
        return 0

    if args.command == "verlinde":
        data = load(args.file)
        rep = check_modular(data)
        if rep.s_norm is None:
            print(f"no normalized S-matrix: verdict is {rep.verdict}", file=sys.stderr)
            return 1
        result = verlinde_coefficients(rep.s_norm)
        match = bool(np.array_equal(result.rounded, data.ring.N))
        for (a, b, c) in np.argwhere(result.rounded != 0):
            print(f"N[{a},{b},{c}] = {result.rounded[a, b, c]}")
        print(f"max rounding error: {result.max_error:.3e}", file=sys.stderr)
        print(f"matches stored fusion rules: {match}", file=sys.stderr)
        return 0 if result.integral and match else 1

    if args.command == "gen":
        from .catalog import CatalogSpec, generate
        spec = CatalogSpec(
            family=args.family, level=args.level, n=args.n, q_exponent=args.q
        )
        data = generate(spec)
        save(data, args.output)
        print(f"wrote {data.name} ({data.ring.size} labels) to {args.output}", file=sys.stderr)
        return 0

    if args.command == "gauge":
        data = load(args.file)
        gauged = gauge_transform(data, random_gauge(data.ring, args.seed))
        gauged.name = f"{data.name}@gauge{args.seed}" if data.name else f"gauge{args.seed}"
        save(gauged, args.output)
        print(f"wrote gauged data to {args.output}", file=sys.stderr)
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def _fmt(z: complex) -> str:
    return f"{z.real:+.10f}{z.imag:+.10f}j"


if __name__ == "__main__":
    sys.exit(main())
