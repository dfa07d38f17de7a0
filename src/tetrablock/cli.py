"""Command-line entry point.

One executable, ``tetra``, with a subcommand per tool.  Every command
prints a single JSON document (or flat text with ``--format text``)
and returns an exit code with a fixed meaning:

* 0: the computation succeeded and the verdict, if any, is affirmative.
* 1: the computation succeeded but the verdict is negative
  (Violation, Obstructed, Inconclusive, or a failing selftest).
* 2: usage or input error.

The distinction lets shell scripts separate "the math said no" from
"the tool could not run".  Randomized commands echo the seed they
used; repeating a command with the same seed and flags reproduces the
output byte for byte.  ``TETRA_SEED`` overrides the config seed, and
an explicit ``--seed`` flag overrides both.  Only the randomized
commands (``sup``, ``falsify``, ``counterexample``) accept ``--seed``;
the deterministic ones reject it as a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import DEFAULT_CONFIG, ToolConfig
from .contractions import (
    check_obstruction_hypotheses,
    check_tetra_unitary,
    commutation_defect,
    dilation_obstruction,
    extract_fundamental,
    falsify_spectral_set,
    falsify_to_json,
    fundamental_to_json,
    report_to_json,
    triple_from_json,
    triple_to_json,
)
from .counterexample import pipeline_report_to_json, run_pipeline, verdict_document
from .errors import TetrablockError
from .geometry import classify_point, point_from_json, point_to_json, sup_on_closure
from .linalg import complex_to_json, matrix_from_json, matrix_to_json
from .models import (
    build_circulant_model,
    build_hardy_model,
    interior_identity_report,
)
from .poly3 import cf_empirical_inf, cf_matrix_norm, poly_from_json

__all__ = ["main"]


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError:
        raise ValueError(f"cannot parse {text!r} as a complex number")


def _parse_point(text: str) -> tuple[complex, complex, complex]:
    """Accept '(a,b,c)' tuple syntax or the JSON point object."""
    text = text.strip()
    if text.startswith("{"):
        return point_from_json(json.loads(text))
    inner = text.strip("()[] ")
    parts = inner.split(",")
    if len(parts) != 3:
        raise ValueError(
            f"expected three comma-separated components, got {text!r}"
        )
    return tuple(_parse_complex(p) for p in parts)


def _load_json_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _resolve_seed(args, config: ToolConfig) -> int:
    # A flag or TETRA_SEED is checked here, by name; the config checks
    # its own seed.
    name, value = "--seed", getattr(args, "seed", None)
    if value is None:
        name, value = "TETRA_SEED", os.environ.get("TETRA_SEED")
    if value is None:
        return config.seed
    try:
        seed = int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if seed < 0:
        raise ValueError(f"{name} must be nonnegative, got {seed}")
    return seed


def _flatten(doc, prefix="") -> list:
    lines = []
    if isinstance(doc, dict):
        for key in sorted(doc):
            lines.extend(_flatten(doc[key], f"{prefix}{key}."))
    elif isinstance(doc, (list, tuple)):
        lines.append(f"{prefix[:-1]}: {json.dumps(doc)}")
    else:
        lines.append(f"{prefix[:-1]}: {doc}")
    return lines


def _render(doc: dict) -> str:
    """The JSON text of a verdict document, for stdout and ``--out``."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def _emit(doc: dict, args, config: ToolConfig) -> None:
    # Rendered whole first, in both forms, so that a non-finite value
    # exits 2 in text form too and leaves no --out file.
    text = _render(doc)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    fmt = getattr(args, "format", None) or config.output_format
    print("\n".join(_flatten(doc)) if fmt == "text" else text)


def _cmd_classify(args, config: ToolConfig) -> int:
    x1, x2, x3 = _parse_point(args.point)
    rep = classify_point(x1, x2, x3, tol=config.tol_algebraic)
    doc = verdict_document(
        "classify",
        "InClosure" if rep.in_closure else "Outside",
        point=point_to_json(x1, x2, x3),
        in_closure=rep.in_closure,
        distinguished_boundary=rep.distinguished,
        x3_abs=rep.x3_abs,
        beta=None
        if rep.beta is None
        else [complex_to_json(rep.beta[0]), complex_to_json(rep.beta[1])],
        beta_sum=rep.beta_sum,
        residual=rep.residual,
    )
    _emit(doc, args, config)
    return 0


def _cmd_sup(args, config: ToolConfig) -> int:
    poly = poly_from_json(_load_json_file(args.poly))
    seed = _resolve_seed(args, config)
    samples = args.samples if args.samples is not None else config.sup_samples
    value = sup_on_closure(poly, n_samples=samples, seed=seed)
    doc = verdict_document(
        "sup", "Estimated", seed=seed, samples=samples, estimate=value
    )
    _emit(doc, args, config)
    return 0


def _cmd_cf(args, config: ToolConfig) -> int:
    b0 = _parse_complex(args.b0)
    b1 = _parse_complex(args.b1)
    mu = cf_matrix_norm(b0, b1)
    value = cf_empirical_inf(b0, b1, [args.degree], grid=config.cf_grid)[0]
    doc = verdict_document(
        "cf",
        "Estimated",
        b0=complex_to_json(b0),
        b1=complex_to_json(b1),
        degree=args.degree,
        matrix_norm=mu,
        empirical_inf=value,
        ratio=value / mu if mu > 0 else None,
    )
    _emit(doc, args, config)
    return 0


def _cmd_fundamental(args, config: ToolConfig) -> int:
    triple = triple_from_json(_load_json_file(args.triple))
    pair = extract_fundamental(
        triple, rank_tol=config.rank_tol, tol_solve=config.tol_solve
    )
    doc = verdict_document(
        "fundamental",
        "Extracted",
        **fundamental_to_json([(pair, 1)]),
        a1=matrix_to_json(pair.a1),
        a2=matrix_to_json(pair.a2),
    )
    _emit(doc, args, config)
    return 0


def _cmd_falsify(args, config: ToolConfig) -> int:
    triple = triple_from_json(_load_json_file(args.triple))
    seed = _resolve_seed(args, config)
    trials = args.trials if args.trials is not None else config.falsify_trials
    rep = falsify_spectral_set(
        triple, trials=trials, degree=args.degree, seed=seed, config=config
    )
    doc = verdict_document(
        "falsify",
        rep.outcome,
        seed=seed,
        trials=trials,
        degree=args.degree,
        **falsify_to_json(rep),
    )
    _emit(doc, args, config)
    return 1 if rep.outcome == "Violation" else 0


def _cmd_obstruction(args, config: ToolConfig) -> int:
    triple = triple_from_json(_load_json_file(args.triple))
    pair = extract_fundamental(
        triple, rank_tol=config.rank_tol, tol_solve=config.tol_solve
    )
    obstruction = dilation_obstruction(
        pair.a1, pair.a2, tol=config.tol_algebraic
    )
    hypotheses = check_obstruction_hypotheses(
        triple, args.split, tol=config.tol_algebraic, rank_tol=config.rank_tol
    )
    doc = verdict_document(
        "obstruction",
        "Obstructed" if obstruction.obstructed else "Unobstructed",
        split=args.split,
        rank=pair.rank,
        c1=obstruction.c1,
        c2=obstruction.c2,
        tol=obstruction.tol,
        hypotheses=report_to_json(hypotheses),
    )
    _emit(doc, args, config)
    return 1 if obstruction.obstructed else 0


def _cmd_model(args, config: ToolConfig) -> int:
    a1 = matrix_from_json(_load_json_file(args.a1))
    a2 = matrix_from_json(_load_json_file(args.a2))
    build = build_hardy_model if args.flavor == "hardy" else build_circulant_model
    model = build(
        a1, a2, args.blocks, tol=config.tol_algebraic, z_samples=config.z_samples
    )
    if model.flavor == "hardy":
        checks = {
            "interior": report_to_json(interior_identity_report(model)),
            "commutation": commutation_defect(model),
        }
    else:
        checks = {"boundary_triple": report_to_json(check_tetra_unitary(model))}
    doc = verdict_document(
        "model",
        "Built",
        flavor=model.flavor,
        blocks=args.blocks,
        dim=model.dim,
        symbol=report_to_json(model.symbol),
        **checks,
    )
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            json.dump(triple_to_json(model), fh, indent=2, sort_keys=True)
        doc["emitted"] = args.emit
    _emit(doc, args, config)
    return 0


def _cmd_counterexample(args, config: ToolConfig) -> int:
    seed = _resolve_seed(args, config)
    report = run_pipeline(
        args.blocks,
        config=config,
        trials=args.trials,
        degree=args.degree,
        seed=seed,
    )
    _emit(pipeline_report_to_json(report), args, config)
    return 1 if report.verdict in ("Obstructed", "Inconclusive") else 0


def _cmd_selftest(args, config: ToolConfig) -> int:
    from .selftest import format_result, run_all

    results = run_all()
    for result in results:
        print(format_result(result))
    failed = [r.key for r in results if not r.passed]
    total = sum(r.elapsed for r in results)
    if failed:
        print(f"FAILED criteria: {', '.join(failed)} ({total:.1f}s total)")
        return 1
    print(f"All {len(results)} criteria passed ({total:.1f}s total)")
    return 0


def _add_common(sub: argparse.ArgumentParser, run, *, seeded: bool = False) -> None:
    # Only the randomized commands take --seed; the others reject it.
    sub.set_defaults(run=run)
    sub.add_argument(
        "--config", help="path to a ToolConfig JSON file", default=None
    )
    sub.add_argument(
        "--format",
        choices=("json", "text"),
        default=None,
        help="report rendering (default from config)",
    )
    if seeded:
        sub.add_argument(
            "--seed", type=int, default=None, help="master seed override"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetra",
        description="Constructions around dilation failure on the tetrablock.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classify", help="membership of a point in the closed domain")
    p.add_argument("--point", required=True, help="'(a,b,c)' or JSON point")
    _add_common(p, _cmd_classify)

    p = subs.add_parser("sup", help="sup of |p| over the closed domain")
    p.add_argument("--poly", required=True, help="polynomial JSON file")
    p.add_argument("--samples", type=int, default=None)
    _add_common(p, _cmd_sup, seeded=True)

    p = subs.add_parser("cf", help="minimal circle sup completing b0 + b1 z")
    p.add_argument("--b0", required=True)
    p.add_argument("--b1", required=True)
    p.add_argument("--degree", type=int, default=8)
    _add_common(p, _cmd_cf)

    p = subs.add_parser("fundamental", help="extract the fundamental pair")
    p.add_argument("--triple", required=True, help="triple JSON file")
    _add_common(p, _cmd_fundamental)

    p = subs.add_parser("falsify", help="random search for a sup-norm violation")
    p.add_argument("--triple", required=True, help="triple JSON file")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--degree", type=int, default=3)
    _add_common(p, _cmd_falsify, seeded=True)

    p = subs.add_parser("obstruction", help="dilation obstruction invariants")
    p.add_argument("--triple", required=True, help="triple JSON file")
    p.add_argument("--split", type=int, required=True, help="half dimension")
    _add_common(p, _cmd_obstruction)

    p = subs.add_parser("model", help="build a functional model from symbols")
    p.add_argument("--a1", required=True, help="matrix JSON file")
    p.add_argument("--a2", required=True, help="matrix JSON file")
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--flavor", choices=("hardy", "circulant"), default="hardy")
    p.add_argument("--emit", default=None, help="write the triple JSON here")
    _add_common(p, _cmd_model)

    p = subs.add_parser("counterexample", help="run the full witness pipeline")
    p.add_argument("--blocks", type=int, default=4)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--out", default=None, help="also write the verdict JSON here")
    _add_common(p, _cmd_counterexample, seeded=True)

    p = subs.add_parser("selftest", help="run the acceptance suite")
    _add_common(p, _cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = (
            ToolConfig.from_json(args.config) if args.config else DEFAULT_CONFIG
        )
        return args.run(args, config)
    except TetrablockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
