"""Command-line front door: structural queries and verification suites.

Exit codes: 0 success, 1 a verification failed, 2 invalid input, 141
stdout closed by the reader (the code a shell reports for a writer
stopped by SIGPIPE).
"""

import argparse
import functools
import json
import os
import sys

from . import span as span_mod
from . import hom, structure, verify
from .errors import InvalidConfigError, NearVecError, NotCoprimeError
from .report import dumps
from .space import (
    TwistedSpace,
    check_axioms_raw,
    quasi_kernel_report,
    vector_from_json,
    vectors_to_json,
)


def load_space(path):
    with open(path) as fh:
        config = json.load(fh)
    return TwistedSpace.from_config(config)


def parse_vector(space, text):
    return vector_from_json(space, json.loads(text))


def emit(report, as_json):
    """Print a report: with ``as_json``, in the stdlib's ``indent=2,
    sort_keys=True`` JSON format (written by ``report.dumps`` in one
    walk), otherwise as indented ``key: value`` lines."""
    if as_json:
        print(dumps(report))
        return
    _print_plain(report)


def _print_plain(report, indent=0):
    pad = "  " * indent
    if isinstance(report, dict):
        for key, value in report.items():
            if isinstance(value, dict) or (
                isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value)
            ):
                print(f"{pad}{key}:")
                _print_plain(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")
    elif isinstance(report, list):
        for value in report:
            if isinstance(value, dict):
                _print_plain(value, indent)
                print()
            else:
                print(f"{pad}- {value}")
    else:
        print(f"{pad}{report}")


# -- commands -------------------------------------------------------------


def cmd_info(args):
    """Field, classes and regularity, the latter in closed form
    (``structure.is_regular`` is the pairwise oracle behind ``verify``)."""
    space = load_space(args.config)
    regular = structure.regularity_closed_form(space)
    report = {
        "field": repr(space.field),
        "size": space.size,
        "exponents": list(space.exponents),
        "classes": [
            {"support": list(c.support), "exponent": c.exponent}
            for c in space.classes
        ],
        "regular": regular.regular,
        "component_count": len(space.classes),
    }
    if not regular.regular:
        report["incompatible_pair"] = vectors_to_json(space, regular.witness)
    emit(report, args.json)
    return 0


def _member_limit(args):
    # keep terminal output scannable; machine output carries the full sets
    return 4096 if args.json else 24


def cmd_qk(args):
    space = load_space(args.config)
    emit(quasi_kernel_report(space, member_limit=_member_limit(args)), args.json)
    return 0


def cmd_decompose(args):
    space = load_space(args.config)
    emit(structure.decompose(space).to_json(member_limit=_member_limit(args)), args.json)
    return 0


def cmd_span(args):
    space = load_space(args.config)
    vectors = [parse_vector(space, text) for text in args.vectors]
    emit(span_mod.span_of(space, vectors).to_json(member_limit=_member_limit(args)), args.json)
    return 0


def cmd_dim(args):
    space = load_space(args.config)
    vector = parse_vector(space, args.vector)
    emit(span_mod.dim_of_vector(space, vector).to_json(space), args.json)
    return 0


def cmd_verify(args):
    if args.raw:
        with open(args.raw) as fh:
            fixture = json.load(fh)
        if not isinstance(fixture, dict):
            raise InvalidConfigError(
                f"raw fixture must be a JSON object, not {type(fixture).__name__}"
            )
        for key in ("add_table", "endomorphisms"):
            if key not in fixture:
                raise InvalidConfigError(f"raw fixture has no {key!r} entry")
        report = check_axioms_raw(fixture["add_table"], fixture["endomorphisms"])
        payload = report.to_json()
        emit(payload, args.json)
        if not report.all_pass:
            print(f"FAIL: {report.failed()[0]}", file=sys.stderr)
            return 1
        return 0
    space = load_space(args.config)
    report = verify.run_suites(
        space, [args.suite], seed=args.seed, max_size=args.max_size
    )
    emit(report, args.json)
    if not report["pass"]:
        failing = next(s for s in report["suites"] if not s["pass"])
        bad = next(c for c in failing["checks"] if not c["pass"])
        print(f"FAIL: {failing['name']}: {bad['name']}", file=sys.stderr)
        return 1
    return 0


def cmd_hom(args):
    """Check a (theta, eta) map through ``hom.hom_check``: generator
    checks first, the all-pairs scan only for a failing condition's
    witness."""
    space1 = load_space(args.config)
    space2 = load_space(args.config2)
    with open(args.map) as fh:
        theta, eta = hom.parse_map(space1, space2, json.load(fh))
    report = hom.hom_check(space1, space2, theta, eta)
    emit(report, args.json)
    return 0 if report["pass"] else 1


# -- argument parsing -------------------------------------------------------


def non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


@functools.cache
def build_parser():
    """The parser, built once per process; each ``parse_args`` call
    returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="nearvec",
        description="Exact structural computations on finite near-vector "
        "spaces with twisted scalar actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="space config JSON file")
        p.add_argument("--json", action="store_true", help="machine output")

    p = sub.add_parser("info", help="field, classes, regularity")
    common(p)

    p = sub.add_parser("qk", help="quasi-kernel members and class supports")
    common(p)

    p = sub.add_parser("decompose", help="regular components")
    common(p)

    p = sub.add_parser("span", help="span of the given vectors")
    common(p)
    p.add_argument("vectors", nargs="+", help="vectors as JSON arrays")

    p = sub.add_parser("dim", help="dimension of a vector")
    common(p)
    p.add_argument("vector", help="vector as a JSON array")

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("config", nargs="?", help="space config JSON file")
    p.add_argument(
        "--suite",
        default="all",
        choices=sorted(verify.SUITE_NAMES) + ["all"],
        help="which suite to run",
    )
    p.add_argument("--raw", help="raw fixture JSON (group table + endomorphisms)")
    p.add_argument("--json", action="store_true", help="machine output")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled sub-suites")
    p.add_argument("--max-size", type=non_negative_int, default=None, help="lower the enumeration bounds")

    p = sub.add_parser("hom", help="check a homomorphism pair (theta, eta)")
    common(p)
    p.add_argument("config2", help="target space config JSON file")
    p.add_argument("map", help="JSON file with theta and eta tables")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "verify" and not args.raw and args.config is None:
        print("error: verify needs a config file or --raw fixture", file=sys.stderr)
        return 2
    try:
        # looked up at call time, not bound in the cached parser, so that
        # rebinding a cmd_* function (a monkeypatch, a tracer) takes effect
        code = globals()[f"cmd_{args.command}"](args)
        # flush inside the try, so a reader that is already gone is caught
        # below however much output the buffer held
        sys.stdout.flush()
        return code
    except NotCoprimeError as exc:
        detail = {
            "error": "NotCoprime",
            "index": exc.index,
            "exponent": exc.exponent,
            "gcd": exc.gcd,
            "witness": {
                "alpha": exc.alpha,
                "beta": exc.beta,
                "vector": list(exc.vector),
            },
        }
        print(json.dumps(detail, indent=2, sort_keys=True), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: send the rest of the output, and the flush
        # at exit, to devnull so that neither raises again
        sys.stdout = open(os.devnull, "w")
        return 141
    except (NearVecError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
