"""Command-line driver.

Every subcommand is a thin shell over the library: it loads files,
calls one or two library operations, and wraps the result in a JSON
report with a schema tag, the input's content hash, and timing.  Exit
codes separate outcomes for scripting: 0 success, 2 "mathematically
not representable" (from check/construct), 1 operational errors,
64 usage errors, 65 unreadable or unparseable files.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import io as bwio
from .core import (
    exact_fraction,
    from_counts,
    members,
    pair_complement_check,
    validate,
)
from .errors import (
    BwrumError,
    ConstructionInconsistent,
    InputFileError,
    NotRepresentable,
    OutputFileError,
    UsageError,
    WitnessConstructionFailed,
)
from .fixtures import FIXTURE_NAMES, emit_fixture
from .linear import require_size
from .lp import lp_feasibility_oracle
from .measure import (
    build_distribution,
    system_from_distribution,
    verify_reconstruction,
)
from .polynomials import (
    NOT_REPRESENTABLE,
    REPRESENTABLE,
    all_polynomials,
    check_representable,
)
from .rankings import enumerate_pattern, pattern
from .simulate import SeededRng, random_distribution, simulate_dataset

SCHEMA = "bwrum-report/1"

# `pattern` lists every ranking it counts: at n = 9 that is 9! = 362,880
# rankings in about 1.25 s and 97 MiB, and each step up in n multiplies both
# by about n.
PATTERN_MAX_N = 9


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems as exceptions."""

    def error(self, message: str):
        raise UsageError(message)


def _nonnegative_fraction(text: str) -> Fraction:
    try:
        value = exact_fraction(text)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not an exact rational") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} must be nonnegative")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="bwrum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--labels", help="comma-separated display names, overriding the file")
        p.add_argument("--out", help="write the report (or, for simulate, the counts) here")
        return p

    p = add("validate", "audit a system file for normalization and range violations")
    p.add_argument("file")

    p = add("ingest", "estimate a system from best-worst choice counts")
    p.add_argument("file")
    p.add_argument("--smoothing", type=_nonnegative_fraction, default=Fraction(0))

    p = add("poly", "compute the full polynomial table of a system")
    p.add_argument("file")
    p.add_argument("--csv", help="also write the table as CSV here")

    p = add("check", "decide representability by the exact sign test")
    p.add_argument("file")
    p.add_argument("--tolerance", type=_nonnegative_fraction, default=Fraction(0))
    p.add_argument("--witness", action="store_true", help="also build and verify a witness")

    p = add("construct", "build a witness distribution for a representable system")
    p.add_argument("file")
    p.add_argument("--method", choices=("declarative", "lp", "both"), default="declarative")

    p = add("forward", "compute the system induced by a ranking distribution")
    p.add_argument("file")

    p = add("pattern", "count or list the rankings matching a sandwich pattern")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prefix", default="")
    p.add_argument("--ground", required=True)
    p.add_argument("--suffix", default="")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--count", action="store_true", help="print the count only (default)")
    group.add_argument("--list", dest="list_rankings", action="store_true")

    p = add("simulate", "draw best-worst choices from a ranking distribution")
    p.add_argument("file")
    p.add_argument("--design", required=True, help="JSON file of subsets and trial counts")
    p.add_argument("--seed", type=int, required=True)

    p = add("demo", "random distribution, forward, check, construct, verify")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--seed", type=int, default=7)

    p = add("fixture", "write a built-in worked example as JSON")
    p.add_argument("name", choices=FIXTURE_NAMES)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--n", type=int, help="size for the uniform_n fixture")

    return parser


# ---------------------------------------------------------------------------
# Shared helpers


def _input_info(path: str) -> dict:
    return {"path": str(path), "sha256": bwio.input_digest(path)}


def _labeler(n: int, file_labels, args) -> bwio.Labeler:
    override = getattr(args, "labels", None)
    if override:
        tokens = [t.strip() for t in override.split(",") if t.strip()]
        try:
            return bwio.Labeler(n, tokens)
        except InputFileError as exc:
            raise UsageError(str(exc)) from exc
    return bwio.Labeler(n, file_labels)


def _distribution_rows(dist, labeler: bwio.Labeler) -> list[dict]:
    return bwio.distribution_to_payload(dist, labeler.labels)["distribution"]


def _load_system(args, *, lenient: bool = False):
    payload = bwio.load_json(args.file)
    system, file_labels = bwio.system_from_payload(payload, lenient=lenient)
    return system, _labeler(system.n, file_labels, args)


# ---------------------------------------------------------------------------
# Subcommand handlers, each returning (exit code, report body)


def _cmd_validate(args) -> tuple[int, dict]:
    system, labeler = _load_system(args, lenient=True)
    report = validate(system)
    body = {
        "input": _input_info(args.file),
        "n": system.n,
        "valid": report.ok,
        "sum_violations": [
            {"members": labeler.names(members(mask)), "deviation": bwio.fraction_str(dev)}
            for mask, dev in report.sum_violations
        ],
        "range_violations": [
            {
                "members": labeler.names(members(mask)),
                "best": labeler.name(a),
                "worst": labeler.name(b),
                "p": bwio.fraction_str(p),
            }
            for mask, a, b, p in report.range_violations
        ],
        "pair_complement": pair_complement_check(system),
    }
    return (0 if report.ok else 1), body


def _cmd_ingest(args) -> tuple[int, dict]:
    payload = bwio.load_json(args.file)
    dataset, file_labels = bwio.counts_from_payload(payload)
    labeler = _labeler(dataset.n, file_labels, args)
    result = from_counts(dataset, args.smoothing)
    body = {
        "input": _input_info(args.file),
        "n": dataset.n,
        "smoothing": bwio.fraction_str(args.smoothing),
        "unobserved_subsets": [
            labeler.names(members(mask)) for mask in result.unobserved_subsets
        ],
        "system": bwio.system_to_payload(result.system, labeler.labels),
    }
    return 0, body


def _cmd_poly(args) -> tuple[int, dict]:
    system, labeler = _load_system(args)
    table = all_polynomials(system)
    rows = [
        {
            "best": labeler.name(a),
            "worst": labeler.name(b),
            "context": labeler.names(members(mask)),
            "K": bwio.fraction_str(value),
        }
        for a, b, mask, value in table.items_sorted()
    ]
    body = {"input": _input_info(args.file), "n": system.n, "polynomials": rows}
    if args.csv:
        table = [
            [row["best"], row["worst"], " ".join(map(str, row["context"])), row["K"]]
            for row in rows
        ]
        bwio.dump_csv([["best", "worst", "context", "K"], *table], args.csv)
        body["csv_written"] = str(args.csv)
    return 0, body


def _cmd_check(args) -> tuple[int, dict]:
    system, labeler = _load_system(args)
    body: dict = {"input": _input_info(args.file), "n": system.n}
    try:
        report = check_representable(
            system, construct_witness=args.witness, tolerance=args.tolerance
        )
    except WitnessConstructionFailed as exc:
        # The sign test passed, yet no distribution reproduces the cells;
        # the system is still not representable, just via a subtler route.
        body.update(
            {
                "verdict": NOT_REPRESENTABLE,
                "approximate": args.tolerance != 0,
                "negatives": [],
                "witness_error": str(exc),
            }
        )
        return 2, body
    body.update(
        {
            "verdict": report.verdict,
            "approximate": report.approximate,
            "negatives": [
                {
                    "best": labeler.name(a),
                    "worst": labeler.name(b),
                    "context": labeler.names(members(mask)),
                    "K": bwio.fraction_str(value),
                }
                for a, b, mask, value in report.negatives
            ],
        }
    )
    if report.witness is not None:
        body["witness"] = _distribution_rows(report.witness, labeler)
        body["witness_verified"] = report.witness_verified
    return (0 if report.representable else 2), body


def _cmd_construct(args) -> tuple[int, dict]:
    system, labeler = _load_system(args)
    body: dict = {
        "input": _input_info(args.file),
        "n": system.n,
        "method": args.method,
    }
    verdicts: dict[str, str] = {}
    messages: list[str] = []
    declarative_dist = None
    lp_result = None

    if args.method in ("declarative", "both"):
        try:
            declarative_dist = build_distribution(system)
            verdicts["declarative"] = REPRESENTABLE
        except (NotRepresentable, ConstructionInconsistent) as exc:
            verdicts["declarative"] = NOT_REPRESENTABLE
            messages.append(str(exc))

    if args.method in ("lp", "both"):
        lp_result = lp_feasibility_oracle(system)
        verdicts["lp"] = REPRESENTABLE if lp_result.feasible else NOT_REPRESENTABLE

    methods_agree = len(set(verdicts.values())) == 1
    body["verdicts"] = verdicts
    body["methods_agree"] = methods_agree
    if messages:
        body["messages"] = messages
    if not methods_agree:
        body["verdict"] = "Disagreement"
        body["distribution"] = None
        body["verified"] = False
        return 1, body

    verdict = next(iter(verdicts.values()))
    body["verdict"] = verdict
    witnesses = [declarative_dist] if declarative_dist is not None else []
    if lp_result is not None and lp_result.feasible:
        witnesses.append(lp_result.distribution)
    if not witnesses:
        body["distribution"] = None
        body["verified"] = False
        return 2, body
    # Every witness is re-checked; one that fails is a construction mismatch.
    body["distribution"] = _distribution_rows(witnesses[0], labeler)
    body["verified"] = all(verify_reconstruction(system, w).ok for w in witnesses)
    return (0 if body["verified"] else 1), body


def _cmd_forward(args) -> tuple[int, dict]:
    payload = bwio.load_json(args.file)
    dist, file_labels = bwio.distribution_from_payload(payload)
    labeler = _labeler(dist.n, file_labels, args)
    system = system_from_distribution(dist)
    body = {
        "input": _input_info(args.file),
        "n": dist.n,
        "support_size": len(dist.support()),
        "system": bwio.system_to_payload(system, labeler.labels),
    }
    return 0, body


def _split_tokens(text: str) -> list[str]:
    return [token.strip() for token in text.split(",") if token.strip()]


def _cmd_pattern(args) -> tuple[int, dict]:
    if args.n < 2:
        raise UsageError(f"--n must be at least 2, got {args.n}")
    if args.n > PATTERN_MAX_N:
        raise UsageError(f"--n must be at most {PATTERN_MAX_N}, got {args.n}")
    labeler = _labeler(args.n, None, args)
    try:
        prefix = labeler.resolve_all(_split_tokens(args.prefix))
        suffix = labeler.resolve_all(_split_tokens(args.suffix))
        ground = labeler.resolve_all(_split_tokens(args.ground))
    except InputFileError as exc:
        raise UsageError(str(exc)) from exc
    try:
        descriptor = pattern(prefix, ground, suffix, args.n)
    except BwrumError as exc:
        raise UsageError(str(exc)) from exc
    rankings = sorted(enumerate_pattern(descriptor, args.n))
    body = {
        "input": {"sha256": bwio.argument_digest([str(args.n), args.prefix, args.ground, args.suffix])},
        "n": args.n,
        "pattern": {
            "prefix": labeler.names(prefix),
            "ground": labeler.names(sorted(ground)),
            "suffix": labeler.names(suffix),
        },
        "count": len(rankings),
    }
    if args.list_rankings:
        body["rankings"] = [labeler.names(r) for r in rankings]
    return 0, body


def _cmd_simulate(args) -> tuple[int, dict]:
    payload = bwio.load_json(args.file)
    dist, file_labels = bwio.distribution_from_payload(payload)
    design_payload = bwio.load_json(args.design)
    design_labels = design_payload.get("labels") or file_labels
    design = bwio.design_from_payload(design_payload, dist.n, design_labels)
    labeler = _labeler(dist.n, file_labels, args)
    rng = SeededRng(args.seed)
    dataset = simulate_dataset(dist, design, rng)
    counts_payload = bwio.counts_to_payload(dataset, labeler.labels)
    body = {
        "input": _input_info(args.file),
        "design": _input_info(args.design),
        "n": dist.n,
        "seed": args.seed,
        "total_trials": sum(trials for _, trials in design),
        "counts": counts_payload,
    }
    if args.out:
        bwio.dump_json(counts_payload, args.out)
        body["written"] = str(args.out)
    return 0, body


def _cmd_demo(args) -> tuple[int, dict]:
    if args.n < 2:
        raise UsageError(f"--n must be at least 2, got {args.n}")
    require_size(args.n)
    rng = SeededRng(args.seed)
    source = random_distribution(args.n, rng)
    system = system_from_distribution(source)
    labeler = _labeler(args.n, None, args)
    report = check_representable(system)
    witness = build_distribution(system)
    verification = verify_reconstruction(system, witness)
    round_trip = report.representable and verification.ok
    body = {
        "input": {"sha256": bwio.argument_digest([str(args.n), str(args.seed)])},
        "n": args.n,
        "seed": args.seed,
        "source_distribution": _distribution_rows(source, labeler),
        "verdict": report.verdict,
        "witness": _distribution_rows(witness, labeler),
        "witness_verified": verification.ok,
        "round_trip": round_trip,
    }
    return (0 if round_trip else 1), body


def _cmd_fixture(args) -> tuple[int, dict]:
    paths = emit_fixture(args.name, args.out_dir, args.n)
    body = {
        "input": {"sha256": bwio.argument_digest([args.name, str(args.out_dir), str(args.n)])},
        "fixture": args.name,
        "written": [str(p) for p in paths],
    }
    return 0, body


_HANDLERS = {
    "validate": _cmd_validate,
    "ingest": _cmd_ingest,
    "poly": _cmd_poly,
    "check": _cmd_check,
    "construct": _cmd_construct,
    "forward": _cmd_forward,
    "pattern": _cmd_pattern,
    "simulate": _cmd_simulate,
    "demo": _cmd_demo,
    "fixture": _cmd_fixture,
}


def _error_report(command: str | None, exc: BaseException) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def run_command(argv) -> tuple[int, dict | None]:
    """Parse and execute one CLI invocation, returning (exit code, report).

    The report is None only when argparse already printed something
    itself (as for --help).
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except UsageError as exc:
        return 64, _error_report(None, exc)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return code, None

    started = time.perf_counter()
    try:
        code, body = _HANDLERS[args.command](args)
    except UsageError as exc:
        return 64, _error_report(args.command, exc)
    except InputFileError as exc:
        return 65, _error_report(args.command, exc)
    except BwrumError as exc:
        return 1, _error_report(args.command, exc)

    report = {"schema": SCHEMA, "command": args.command}
    report.update(body)
    report["timing_ms"] = int((time.perf_counter() - started) * 1000)
    out = getattr(args, "out", None)
    if out and args.command != "simulate":
        report["written_to"] = str(out)
        try:
            bwio.dump_json(report, out)
        except OutputFileError as exc:
            return 1, _error_report(args.command, exc)
    return code, report


def main(argv=None) -> None:
    code, report = run_command(sys.argv[1:] if argv is None else argv)
    if report is not None and not report.get("written_to"):
        print(json.dumps(report, indent=2))
    raise SystemExit(code)


if __name__ == "__main__":
    main()
