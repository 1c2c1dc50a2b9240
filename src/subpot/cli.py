"""Command line front end.

Four subcommands: ``compute`` prints characteristics of one function,
``check`` runs a single named checker on a stored or generated instance,
``suite`` runs the randomized verification suite and writes its CSV, and
``counterexample`` prints the divergence demonstration.  Exit codes:
0 success, 1 inequality violation, 2 excessive generation, quadrature or
checker failures (for ``check`` and ``compute``: any such failure), 3 bad
input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Optional, Sequence

from .characteristics import (
    characteristic_T,
    circle_mean,
    circle_mean_nonlinear,
    counting_integral,
    max_on_circle,
    nevanlinna,
)
from .harness import (
    ALL_CHECKERS,
    PROBE_CHECKERS,
    GenerationError,
    SuiteConfig,
    counterexample,
    generate_instance,
    rng_for,
    run_check,
    run_suite,
)
from .model import (
    canonicalize,
    delta_from_doc,
    potential_from_doc,
    rational_from_doc,
)
from .quadrature import QuadratureError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_FLAKY = 2
EXIT_BAD_INPUT = 3

_CONFIG_FIELDS = frozenset(field.name for field in dataclasses.fields(SuiteConfig))


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default, which this tool reserves
    # for failure-rate reporting; route usage errors to exit code 3.
    def error(self, message: str) -> None:
        raise CliError(message)


def _comma_names(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _comma_floats(text: str) -> list[float]:
    # float() reads "inf" in any case.
    return [float(part) for part in _comma_names(text)]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="subpot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="print characteristics of a stored function")
    p_compute.add_argument("--fn", required=True, help="JSON instance file")
    p_compute.add_argument("--r", type=float, required=True, help="radius")
    p_compute.add_argument("--r0", type=float, default=None, help="inner radius for the two-radius characteristic")
    p_compute.add_argument("--R", type=float, default=None, help="outer radius for the two-radius characteristic")
    p_compute.add_argument("--k", type=float, default=None, help="extra multiple of r to evaluate at")

    p_check = sub.add_parser("check", help="run one checker on one instance")
    p_check.add_argument("name", choices=ALL_CHECKERS)
    p_check.add_argument("--fn", default=None, help="JSON instance file (object or array of objects)")
    p_check.add_argument("--gen-seed", type=int, default=None, help="generate the instance from this seed")
    p_check.add_argument("--index", type=int, default=0, help="instance index under --gen-seed")
    p_check.add_argument("--save", default=None, help="write the generated instance documents to this file")

    p_suite = sub.add_parser("suite", help="run the randomized verification suite")
    p_suite.add_argument("--config", default=None, help="JSON suite configuration file")
    p_suite.add_argument("--seed", type=int, default=None)
    p_suite.add_argument("--instances", type=int, default=None)
    p_suite.add_argument("--checkers", type=_comma_names, default=None, help="comma separated checker names")
    p_suite.add_argument("--k-values", type=_comma_floats, default=None, help="comma separated multipliers > 1")
    p_suite.add_argument("--p-values", type=_comma_floats, default=None, help="comma separated exponents > 1 (inf allowed)")
    p_suite.add_argument("--b-values", type=_comma_floats, default=None, help="comma separated widenings > 0")
    p_suite.add_argument("--out", default=None, help="CSV output path (stdout when omitted)")
    p_suite.add_argument("--jobs", type=int, default=None, help="worker processes")
    p_suite.add_argument("--tol", type=float, dest="quad_rel_tol", help="relative quadrature tolerance override")

    sub.add_parser("counterexample", help="print the divergence demonstration")
    return parser


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _print_value(key: str, value: float) -> None:
    print(f"{key} = {value!r}")


def _cmd_compute(args: argparse.Namespace) -> int:
    doc = _load_json(args.fn)
    if not isinstance(doc, dict):
        raise CliError("instance file must hold a JSON object")
    r = args.r
    if not (r > 0 and math.isfinite(r)):
        raise CliError("--r must be finite and positive")

    if "poles" in doc or "zeros" in doc:
        f = rational_from_doc(doc)
        radii = [r] + ([args.k * r] if args.k else [])
        for rr in radii:
            nev = nevanlinna(f, rr)
            _print_value(f"max_modulus({rr!r})", nev.M.value)
            _print_value(f"proximity({rr!r})", nev.m.value)
            _print_value(f"pole_counting({rr!r})", nev.N.value)
            _print_value(f"characteristic({rr!r})", nev.T.value)
        return EXIT_OK

    if "plus_atoms" in doc or "minus_atoms" in doc:
        u = canonicalize(delta_from_doc(doc))
        lower = u.minus.charge
    elif "atoms" in doc:
        u = potential_from_doc(doc)
        lower = None
    else:
        raise CliError("unrecognized instance document")

    _print_value(f"circle_mean({r!r})", circle_mean(u, r).value)
    _print_value(f"plus_mean({r!r})", circle_mean_nonlinear(u, "plus", r).value)
    _print_value(f"circle_max({r!r})", max_on_circle(u, r).value)
    if args.k:
        _print_value(f"circle_max({args.k * r!r})", max_on_circle(u, args.k * r).value)
    if args.r0 is not None:
        _print_value(f"characteristic({args.r0!r},{r!r})", characteristic_T(u, args.r0, r).value)
    if args.R is not None:
        _print_value(f"characteristic({r!r},{args.R!r})", characteristic_T(u, r, args.R).value)
        if lower is not None:
            _print_value(f"lower_counting({r!r},{args.R!r})", counting_integral(lower, r, args.R))
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    if (args.fn is None) == (args.gen_seed is None):
        raise CliError("check needs exactly one of --fn or --gen-seed")
    if args.fn is not None:
        payload = _load_json(args.fn)
        docs = payload if isinstance(payload, list) else [payload]
    else:
        cfg = SuiteConfig(seed=args.gen_seed)
        rng, _ = rng_for(cfg.seed, args.name, args.index)
        inst = generate_instance(args.name, rng, cfg)
        docs = [{**inst.base_doc, **combo} for combo in inst.combos]
        if args.save:
            with open(args.save, "w", encoding="utf-8") as fh:
                json.dump(docs[0] if len(docs) == 1 else docs, fh, indent=2, sort_keys=True)
                fh.write("\n")

    violated = False
    for doc in docs:
        if not isinstance(doc, dict):
            raise CliError("each instance must be a JSON object")
        rep = run_check(args.name, doc)
        holds = rep.holds()
        print(
            f"{rep.name} lhs={rep.lhs!r} rhs={rep.rhs!r} ratio={rep.ratio!r} "
            f"holds={holds} err={rep.error_estimate!r} fingerprint={rep.instance_fingerprint}"
        )
        if args.name not in PROBE_CHECKERS and not rep.degenerate and not holds:
            violated = True
    return EXIT_VIOLATION if violated else EXIT_OK


def _cmd_suite(args: argparse.Namespace) -> int:
    doc = _load_json(args.config) if args.config else {}
    if not isinstance(doc, dict):
        raise CliError("suite config must be a JSON object")
    # Each flag given sets the config field of its own name.
    flags = {key: value for key, value in vars(args).items() if key in _CONFIG_FIELDS and value is not None}
    try:
        cfg = SuiteConfig.from_doc({**doc, **flags})
    except (ValueError, TypeError) as exc:
        raise CliError(f"bad suite configuration: {exc}") from exc

    result = run_suite(cfg)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(result.csv_text)
        stream = sys.stdout
    else:
        sys.stdout.write(result.csv_text)
        stream = sys.stderr
    for summary in result.summaries:
        bits = [
            f"{summary['name']}:",
            f"rows={summary['rows']}",
            f"violations={summary['violations']}",
            f"degenerate={summary['degenerate']}",
            f"failures={summary['failures']}",
            f"max_ratio={summary['max_ratio']!r}",
        ]
        if "max_a" in summary:
            bits.append(f"max_a={summary['max_a']!r}")
        print(" ".join(bits), file=stream)
    print(f"exit_code={result.exit_code}", file=stream)
    return result.exit_code


def _cmd_counterexample(_args: argparse.Namespace) -> int:
    out = counterexample()
    for check in out["checks"]:
        status = "ok  " if check["ok"] else "FAIL"
        print(
            f"{status} {check['label']}: actual={check['actual']!r} "
            f"expected={check['expected']!r} tol={check['tol']!r}"
        )
    for label, value in out["ratios"].items():
        print(f"ratio {label}: {value!r}")
    return EXIT_OK if out["ok"] else EXIT_VIOLATION


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "suite":
            return _cmd_suite(args)
        if args.command == "counterexample":
            return _cmd_counterexample(args)
        raise CliError(f"unknown command {args.command!r}")
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (QuadratureError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FLAKY
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
