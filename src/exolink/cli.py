"""Command-line front end.

Machine output is JSON on stdout; `report render` is the one subcommand
that prints a human-readable summary instead.  Exit codes: 0 when every
computed check passes, 1 when a check fails, 2 on any bad input.  Past
argparse's usage errors, bad input is a spec, braid or report that does not
parse or validate, or a file that cannot be read, is not UTF-8 or cannot be
written: each is a ValueError, and `main` alone turns it into exit 2.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .groupring import format_univariate
from .knots import alexander_poly, parse_braid
from .manifold import (
    STANDARD_BLOCKS,
    canonical_json,
    invariant_tuple,
    kodaira_thurston_block,
    product_T2_Sigma_g,
    standard_block,
)
from .pipeline import (
    CertificateError,
    RecipeConfig,
    parse_group_arg,
    parse_knots_arg,
    report_records,
    run_recipe,
    verify_lemma_suite,
    verify_trace_report,
)


def _read_text(path: str, what: str) -> str:
    """The text of the UTF-8 ``what`` file at ``path``."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {what} file {path}: {exc}") from exc


def _cmd_knots_poly(args: argparse.Namespace) -> int:
    print(format_univariate(alexander_poly(parse_braid(args.braid))))
    return 0


def _cmd_blocks(_args: argparse.Namespace) -> int:
    payload = {
        "standard": {
            name: invariant_tuple(standard_block(name)) for name in STANDARD_BLOCKS
        },
        "parametric": {
            "kodaira_thurston_block": {
                "parameter": "g >= 1",
                "example_g1": invariant_tuple(kodaira_thurston_block(1)),
                "description": "free-quotient block: killing the torus "
                "directions leaves a free group of rank g",
            },
            "product_T2_Sigma_g": {
                "parameter": "g >= 1",
                "example_g1": invariant_tuple(product_T2_Sigma_g(1)),
                "description": "surface-quotient block: killing the torus "
                "directions leaves the genus-g surface group",
            },
        },
    }
    print(canonical_json(payload))
    return 0


def _cmd_recipe_run(args: argparse.Namespace) -> int:
    spec_text = _read_text(args.spec, "spec")
    kind, genus = parse_group_arg(args.group)
    knots = parse_knots_arg(args.knots)
    cfg = RecipeConfig(spec_text=spec_text, group_kind=kind, genus=genus, knots=knots)
    try:
        report = run_recipe(cfg)
        code = 0
    except CertificateError as exc:
        report = exc.report
        print(f"failed checks: {exc}", file=sys.stderr)
        code = 1
    # the whole report, rendered once, is the file and the stdout alike
    rendered = canonical_json(report, indent=None) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            raise ValueError(f"cannot write report file {args.out}: {exc}") from exc
        summary = {
            "verdict": report["verdict"],
            "out": args.out,
            "checks": {
                "passed": sum(1 for c in report["checks"] if c["pass"]),
                "failed": sum(1 for c in report["checks"] if not c["pass"]),
            },
        }
        print(canonical_json(summary))
    else:
        sys.stdout.write(rendered)
    return code


def _cmd_verify_lemmas(args: argparse.Namespace) -> int:
    report = verify_lemma_suite(args.gmax)
    print(canonical_json(report))
    return 0 if report["pass"] else 1


def _load_report(path: str) -> dict:
    try:
        report = json.loads(_read_text(path, "report"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"report file is not JSON: {exc}") from exc
    if not isinstance(report, dict):
        raise ValueError("report file must hold a JSON object")
    return report


def _cmd_verify_trace(args: argparse.Namespace) -> int:
    result = verify_trace_report(_load_report(args.report), step=args.step)
    print(canonical_json(result))
    return 0 if result["pass"] else 1


def _render_report(report: dict) -> str:
    records = report_records(report)
    lines = []
    cfg = report.get("config", {})
    lines.append(f"recipe report ({report.get('format', 'unversioned')})")
    lines.append(f"  group:   {cfg.get('group', '?')}")
    knots = cfg.get("knots", [])
    lines.append(f"  knots:   {', '.join(k['name'] for k in knots)}")
    lines.append(f"  verdict: {report.get('verdict', '?')}")
    steps = sum(len(r.get("trace", [])) for r in records.values())
    lines.append(f"  records: {len(records)}, {steps} trace steps")
    checks = report.get("checks", [])
    passed = sum(1 for c in checks if c["pass"])
    lines.append(f"  checks:  {passed}/{len(checks)} passed")
    for check in checks:
        if not check["pass"]:
            lines.append(f"    FAIL {check['id']}: {check['description']}")
    certs = report.get("certificates", {})
    if "link_group" in certs:
        lines.append(f"  link group: {certs['link_group']['expected']}")
    # reports written before the collision section carry pairs instead
    if "collisions" in certs.get("smooth_inequivalence", {}):
        collisions = certs["smooth_inequivalence"]["collisions"]
        lines.append(f"  sw collisions: {len(collisions)} among {len(knots)} knots")
    if "ambient" in certs:
        ref = certs["ambient"]["reference"]
        lines.append(
            "  ambient reference: euler {euler}, b2 {b2}, signature "
            "{signature}, {parity}".format(**ref)
        )
    if "brunnian" in certs:
        bru = certs["brunnian"]
        if "subfamily_bound" in bru:
            lines.append(
                f"  brunnian subfamily bound: {bru['subfamily_bound']} "
                f"of {bru['family_size']}"
            )
        else:
            lines.append(f"  brunnian: {bru.get('status', 'n/a')}")
    entries = report.get("entries", [])
    computed = sum(1 for e in entries if e["status"] == "COMPUTED")
    trusted = len(entries) - computed
    lines.append(f"  entries: {computed} computed, {trusted} trusted")
    for entry in entries:
        if entry["status"] == "TRUSTED":
            lines.append(f"    trusted: {entry['id']} [{entry['citation']}]")
    return "\n".join(lines)


def _cmd_report_render(args: argparse.Namespace) -> int:
    try:
        text = _render_report(_load_report(args.report))
    except (LookupError, TypeError, AttributeError) as exc:
        # a check, an entry or the config with a field missing or mistyped
        raise ValueError(f"malformed report: {type(exc).__name__}: {exc}") from exc
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exolink",
        description="symbolic surgery calculus for 2-links in 4-manifolds",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    knots = sub.add_parser("knots", help="knot-level utilities")
    knots_sub = knots.add_subparsers(dest="knots_cmd", required=True)
    poly = knots_sub.add_parser("poly", help="Alexander polynomial of a braid closure")
    poly.add_argument("braid", help='braid word, e.g. "2: s1^3"')
    poly.set_defaults(func=_cmd_knots_poly)

    blocks = sub.add_parser("blocks", help="list the building-block records")
    blocks.set_defaults(func=_cmd_blocks)

    recipe = sub.add_parser("recipe", help="construction recipes")
    recipe_sub = recipe.add_subparsers(dest="recipe_cmd", required=True)
    run = recipe_sub.add_parser("run", help="execute the recipe and certify")
    run.add_argument("--spec", required=True, help="admissible base spec (JSON file)")
    run.add_argument("--group", required=True, help="free:G or surface:G")
    run.add_argument("--knots", required=True, help="twist:A..B or name=braid;...")
    run.add_argument("--out", help="write the report JSON here")
    run.set_defaults(func=_cmd_recipe_run)

    verify = sub.add_parser("verify", help="verification suites")
    verify_sub = verify.add_subparsers(dest="verify_cmd", required=True)
    lemmas = verify_sub.add_parser("lemmas", help="block identities at invariant level")
    lemmas.add_argument("--gmax", type=int, required=True)
    lemmas.set_defaults(func=_cmd_verify_lemmas)

    trace = sub.add_parser("verify-trace", help="replay the traces in a report")
    trace.add_argument("report", help="report JSON file")
    trace.add_argument("--step", type=int, default=None, help="replay only k steps")
    trace.set_defaults(func=_cmd_verify_trace)

    report = sub.add_parser("report", help="report utilities")
    report_sub = report.add_subparsers(dest="report_cmd", required=True)
    render = report_sub.add_parser("render", help="human-readable summary")
    render.add_argument("report", help="report JSON file")
    render.set_defaults(func=_cmd_report_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        # bad input of any command: a spec, braid, report or file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout was closed early: point it at devnull so that the flush at
        # exit cannot fail again ("Note on SIGPIPE" in the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
