"""Command line: ``regpart compute|verify|example|probe``.

Exit codes: 0 success, 1 randomized-verification failure, 2 validation
failure (a model is structurally sound but violates an invariant; the
message names the offending cell where known), 3 parse failure.
"""

import argparse
import functools
import math
import os
import sys

from .diagnostics import MAX_CANTOR_STAGE, PROBE_LAMBDAS
from .errors import ParseError, ValidationError
from .modelio import load_model, write_canonical, write_doc
from .pipeline import (cantor_model_doc, compute_report, run_probe,
                       run_verification)

__all__ = ["build_parser", "main"]


def _parse_lambda_list(text):
    if text is None:
        return PROBE_LAMBDAS
    parts = [part.strip() for part in text.split(",") if part.strip()]
    try:
        values = tuple(float(part) for part in parts)
    except ValueError:
        raise ParseError("--lambda-list expects comma-separated numbers, "
                         "got %r" % text) from None
    for part, value in zip(parts, values):
        if not math.isfinite(value):
            raise ValidationError("probe frequency %r: --lambda-list entry "
                                  "%r is not finite" % (value, part))
    if len({abs(value) for value in values}) < 2:
        raise ValidationError("--lambda-list %r: a slope in lambda^2 needs "
                              "two distinct values of lambda^2" % text)
    return values


def _parse_dims(text):
    try:
        dims = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ParseError("--dims expects comma-separated integers, got %r"
                         % text) from None
    if not dims or any(d < 1 or d > 6 for d in dims):
        raise ValidationError("--dims entries must lie in 1..6")
    return dims


@functools.cache
def build_parser():
    """The command-line parser, built once per process: each
    ``parse_args`` fills a new namespace from the options' defaults, so
    one call leaves nothing behind for the next."""
    parser = argparse.ArgumentParser(
        prog="regpart",
        description="Split sectorial sesquilinear forms into regular and "
                    "singular parts and cross-check the result.")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="regularize a model file and write the report")
    compute.add_argument("--model", required=True, help="model file path")
    compute.add_argument("--out", default=None,
                         help="report path (default: stdout)")
    compute.add_argument("--seed", type=int, default=0,
                         help="seed recorded in the report")
    compute.add_argument("--lambda-list", dest="lambda_list", default=None,
                         help="comma-separated probe modulation frequencies")

    verify = sub.add_parser(
        "verify", help="run the randomized identity and oracle suites")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=int, default=1000,
                        help="identity draws per dimension")
    verify.add_argument("--dims", default="1,2,3",
                        help="comma-separated dimensions")

    example = sub.add_parser(
        "example", help="write the fat-Cantor worked-example model file")
    example.add_argument("name", nargs="?", default="cantor",
                         help="example family (only 'cantor')")
    example.add_argument("--stage", type=int, default=5,
                         help="construction stage (0..%d)"
                         % MAX_CANTOR_STAGE)
    example.add_argument("--out", required=True, help="model file path")

    probe = sub.add_parser(
        "probe", help="plane-wave growth probe of the kernel operator")
    probe.add_argument("--model", required=True, help="model file path")
    probe.add_argument("--out", default=None,
                       help="probe report path (default: stdout)")
    probe.add_argument("--lambda-list", dest="lambda_list", default=None,
                       help="comma-separated modulation frequencies")

    return parser


def _check_out(out_path):
    """Refuse an ``--out`` path that cannot be written, before any model is
    read or computed: a directory, an existing file that cannot be
    written, or a new file whose directory is missing or cannot be
    written."""
    if not out_path:
        return
    if os.path.isdir(out_path):
        problem = "is a directory"
    elif os.path.exists(out_path):
        # an existing target is written in place when its directory is not
        # writable (``/dev/null``, a pipe), so only the target counts
        if os.access(out_path, os.W_OK):
            return
        problem = "is not writable"
    else:
        directory = os.path.dirname(os.path.realpath(out_path))
        if not os.path.isdir(directory):
            problem = "no such directory %s" % directory
        elif not os.access(directory, os.W_OK | os.X_OK):
            problem = "directory %s is not writable" % directory
        else:
            return
    raise ValidationError("--out %s: %s" % (out_path, problem))


def _emit(doc, out_path):
    if out_path:
        try:
            write_doc(out_path, doc)
        except OSError as exc:
            raise ValidationError("--out %s: %s" % (out_path, exc.strerror)) \
                from None
        print("wrote %s" % out_path)
    else:
        write_canonical(sys.stdout, doc)


def _dispatch(args):
    # verify has no --out; the others' is checked before any work
    _check_out(getattr(args, "out", None))
    if args.command == "compute":
        model = load_model(args.model)
        report = compute_report(model, lambdas=_parse_lambda_list(
            args.lambda_list), seed=args.seed)
        _emit(report, args.out)
        return 0
    if args.command == "verify":
        if args.seed < 0:
            raise ValidationError("--seed must be >= 0, got %d" % args.seed)
        if args.trials < 0:
            raise ValidationError("--trials must be >= 0, got %d"
                                  % args.trials)
        summary = run_verification(seed=args.seed, trials=args.trials,
                                   dims=_parse_dims(args.dims))
        return summary["code"]
    if args.command == "example":
        if args.name != "cantor":
            raise ValidationError("unknown example %r (only 'cantor')"
                                  % args.name)
        _emit(cantor_model_doc(args.stage), args.out)
        return 0
    if args.command == "probe":
        model = load_model(args.model)
        doc = run_probe(model, lambdas=_parse_lambda_list(args.lambda_list))
        _emit(doc, args.out)
        return 0
    raise ParseError("unknown command %r" % args.command)  # pragma: no cover


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 3
    except ValidationError as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
