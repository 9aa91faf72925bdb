"""Command-line front end.

Subcommands: count, verify, batch, multipliers, oracle.  All numbers in
JSON output are decimal strings so arbitrary-precision values survive any
JSON consumer.  Exit codes: 0 success, 1 verification or batch-line
failure, 2 validation error, 3 internal cross-check mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import verification
from .counting import count_closed_form, degenerate_simple_poles
from .errors import IsoresidualError
from .exactarith import parse_gaussian_rational
from .levelgraph import count_recursive
from .oracle import multipliers_to_residues, oracle_count
from .partitions import enumerate_partitions, zero_sum_plan
from .profiles import (
    OrderProfile,
    ResidueTuple,
    indices_from_mask,
    mask_from_indices,
    realize_residues,
    structure_from_generators,
    vanishing_subsets,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INVALID = 2
EXIT_MISMATCH = 3


# A report is a tree built here: its index lists are shared, but nothing
# holds itself, so the encoder skips its cycle check.
_report_json = json.JSONEncoder(check_circular=False).encode


class _Invalid(Exception):
    pass


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise _Invalid(f"bad {what}: {exc}") from None


def _profile_from_mu(values: list[int], what: str) -> OrderProfile:
    if len(values) < 3:
        raise _Invalid(f"{what} needs the zero order and at least two pole orders")
    return OrderProfile(values[0], tuple(values[1:]))


def _profile_from_args(mu: str | None, b: str | None) -> OrderProfile:
    if (mu is None) == (b is None):
        raise _Invalid("exactly one of --mu or --b is required")
    try:
        if mu is not None:
            return _profile_from_mu(_parse_int_list(mu, "--mu"), "--mu")
        return OrderProfile.from_pole_orders(_parse_int_list(b, "--b"))
    except ValueError as exc:
        raise _Invalid(str(exc)) from None


def _request_ints(request: dict, key: str) -> list[int]:
    values = request[key]
    if type(values) is list and all(type(x) is int for x in values):  # no bools
        return values
    raise _Invalid(f"{key} must be a list of integers")


def _residues_from_text(parts: list[str]) -> ResidueTuple:
    try:
        return ResidueTuple(tuple(parse_gaussian_rational(p) for p in parts))
    except (IsoresidualError, ValueError, ZeroDivisionError) as exc:
        raise _Invalid(f"bad residues: {exc}") from None


def _parse_vanishings(text: str, n: int) -> list[int]:
    masks = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            masks.append(mask_from_indices(_parse_int_list(chunk, "--vanishings"), n))
        except ValueError as exc:
            raise _Invalid(f"bad --vanishings: {exc}") from None
    return masks


def _closure_lists(structure) -> list[list[int]]:
    return [list(indices_from_mask(m)) for m in structure.sorted_closure()]


def _build_report(profile, structure, residues, seed, *, recursive=False,
                  oracle=False, trace=False):
    """Shared report builder for count, batch and multipliers paths."""
    if oracle and profile.n > 3:
        raise _Invalid("--oracle needs at most three poles")
    breakdown = count_closed_form(profile, structure)
    report = {
        "input": {"mu": [profile.a, *profile.b]},
        "n": profile.n,
        "a": str(profile.a),
        "b": [str(x) for x in profile.b],
    }
    if residues is not None:
        report["input"]["rho"] = [str(v) for v in residues.values]
    else:
        report["input"]["vanishings"] = ";".join(
            ",".join(str(i) for i in indices_from_mask(g))
            for g in structure.generators
        )
    report["input"]["seed"] = seed
    report["closure"] = _closure_lists(structure)
    report["rank"] = structure.rank
    report["max_parts"] = breakdown.max_parts
    report["terms"] = [
        {"s": s, "count": size, "value": str(value)} for s, value, size in breakdown.per_s
    ]
    report["total"] = str(breakdown.total)
    warnings_list = [
        f"pole {i} is simple but forced to zero residue; no differential "
        f"realizes this configuration"
        for i in degenerate_simple_poles(profile, structure)
    ]
    if warnings_list:
        report["warnings"] = warnings_list

    mismatch = False
    if recursive:
        trace_list: list | None = [] if trace else None
        recursive_total = count_recursive(profile, structure, trace=trace_list)
        entry = {
            "total": str(recursive_total),
            "match": recursive_total == breakdown.total,
        }
        if trace_list is not None:
            entry["trace"] = trace_list
        report["recursive"] = entry
        mismatch = mismatch or not entry["match"]
    if oracle:
        rho = residues if residues is not None else realize_residues(structure, seed)
        oracle_total = oracle_count(profile, rho)
        entry = {
            "count": str(oracle_total),
            "rho": [str(v) for v in rho.values],
            "match": oracle_total == breakdown.total,
        }
        report["oracle"] = entry
        mismatch = mismatch or not entry["match"]
    return report, mismatch


def _list_partitions(report: dict, structure) -> dict:
    """Add each term's zero-sum partitions, which only JSON output prints."""
    partitions = enumerate_partitions(structure)
    # One index list per distinct part, shared by every partition holding it.
    names = {
        part: list(indices_from_mask(part)) for part in zero_sum_plan(structure).parts
    }
    for term in report["terms"]:
        term["partitions"] = [
            list(map(names.__getitem__, partition)) for partition in partitions[term["s"]]
        ]
    return report


def _emit(report: dict, structure, as_json: bool):
    if as_json:
        print(_report_json(_list_partitions(report, structure)))
        return
    print(f"profile: a = {report['a']}, b = ({', '.join(report['b'])})")
    if "lambdas" in report["input"]:
        print(f"multipliers: {', '.join(report['input']['lambdas'])}")
    if "rho" in report["input"]:
        print(f"residues: {', '.join(report['input']['rho'])}")
    closure = " ".join(
        "{" + ",".join(str(i) for i in subset) + "}" for subset in report["closure"]
    )
    print(f"vanishing structure: rank {report['rank']}, closure {closure or '(none)'}")
    for term in report["terms"]:
        print(f"  s = {term['s']}: {term['count']} partition(s), term = {term['value']}")
    print(f"total N = {report['total']}")
    for message in report.get("warnings", ()):
        print(f"warning: {message}")
    if "recursive" in report:
        entry = report["recursive"]
        status = "matches" if entry["match"] else "MISMATCH"
        print(f"recursion cross-check: {entry['total']} ({status})")
    if "oracle" in report:
        entry = report["oracle"]
        status = "matches" if entry["match"] else "MISMATCH"
        print(f"elimination oracle: {entry['count']} ({status})")


def _structure_for_request(profile, rho_text, vanishings_text):
    if (rho_text is None) == (vanishings_text is None):
        raise _Invalid("exactly one of --rho or --vanishings is required")
    if rho_text is not None:
        if isinstance(rho_text, str):
            parts = rho_text.split(",")
        elif isinstance(rho_text, list) and all(isinstance(p, str) for p in rho_text):
            parts = rho_text
        else:
            raise _Invalid("rho must be a string or a list of strings")
        residues = _residues_from_text(parts)
        if residues.n != profile.n:
            raise _Invalid(
                f"{residues.n} residues given for {profile.n} poles"
            )
        return vanishing_subsets(residues), residues
    if not isinstance(vanishings_text, str):
        raise _Invalid("vanishings must be a string")
    masks = _parse_vanishings(vanishings_text, profile.n)
    try:
        return structure_from_generators(profile.n, masks), None
    except ValueError as exc:
        raise _Invalid(str(exc)) from None


def _cmd_count(args) -> int:
    for needed in ("recursive", "json"):
        if args.trace and not getattr(args, needed):
            raise _Invalid(f"--trace needs --{needed}")
    profile = _profile_from_args(args.mu, args.b)
    structure, residues = _structure_for_request(profile, args.rho, args.vanishings)
    report, mismatch = _build_report(
        profile, structure, residues, args.seed,
        recursive=args.recursive, oracle=args.oracle, trace=args.trace,
    )
    _emit(report, structure, args.json)
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _cmd_batch(args) -> int:
    any_failed = False
    any_mismatch = False
    try:
        stream = open(args.path, encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    with stream:
        for line_no, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise _Invalid("each line must be a JSON object")
                if "mu" in request:
                    profile = _profile_from_mu(_request_ints(request, "mu"), "mu")
                elif "b" in request:
                    profile = OrderProfile.from_pole_orders(_request_ints(request, "b"))
                else:
                    raise _Invalid("request needs 'mu' or 'b'")
                seed = request.get("seed", 0)
                # type() and not isinstance(): a bool is an int but no seed.
                if type(seed) is not int:
                    raise _Invalid("seed must be an integer")
                switches = {
                    key: request.get(key, False) for key in ("recursive", "oracle")
                }
                for key, value in switches.items():
                    if type(value) is not bool:
                        raise _Invalid(f"{key} must be true or false")
                structure, residues = _structure_for_request(
                    profile, request.get("rho"), request.get("vanishings")
                )
                report, mismatch = _build_report(
                    profile, structure, residues, seed, **switches
                )
                _list_partitions(report, structure)
                report["line"] = line_no
                any_mismatch = any_mismatch or mismatch
                print(_report_json(report))
            except (
                _Invalid, IsoresidualError, ValueError, KeyError,
                IndexError, TypeError, ZeroDivisionError, json.JSONDecodeError,
            ) as exc:
                any_failed = True
                print(json.dumps({"line": line_no, "error": str(exc)}))
    if any_failed:
        return EXIT_FAILED
    return EXIT_MISMATCH if any_mismatch else EXIT_OK


def _cmd_multipliers(args) -> int:
    try:
        lams = tuple(
            parse_gaussian_rational(part) for part in args.lambdas.split(",")
        )
    except (IsoresidualError, ValueError, ZeroDivisionError) as exc:
        raise _Invalid(f"bad multipliers: {exc}") from None
    residues = multipliers_to_residues(lams)
    profile = OrderProfile.from_pole_orders((1,) * residues.n)
    structure = vanishing_subsets(residues)
    report, mismatch = _build_report(
        profile, structure, residues, args.seed,
        recursive=args.recursive, oracle=args.oracle,
    )
    report["input"]["lambdas"] = [str(v) for v in lams]
    _emit(report, structure, args.json)
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _cmd_oracle(args) -> int:
    profile = _profile_from_args(args.mu, args.b)
    if profile.n > 3:
        raise _Invalid("the elimination oracle handles at most three poles")
    structure, residues = _structure_for_request(profile, args.rho, args.vanishings)
    if residues is None:
        residues = realize_residues(structure, args.seed)
    oracle_total = oracle_count(profile, residues)
    closed = count_closed_form(profile, structure).total
    report = {
        "input": {
            "mu": [profile.a, *profile.b],
            "rho": [str(v) for v in residues.values],
            "seed": args.seed,
        },
        "oracle_count": str(oracle_total),
        "closed_form": str(closed),
        "match": oracle_total == closed,
    }
    if args.json:
        print(json.dumps(report))
    else:
        status = "matches" if report["match"] else "MISMATCH"
        print(f"oracle count = {oracle_total}, closed form = {closed} ({status})")
    return EXIT_OK if report["match"] else EXIT_MISMATCH


# The checks behind each suite, by name in ``verification``, with the verify
# bounds each one takes; a bound left out falls back to the check's default.
_BOUNDS = ("n_max", "b_max", "sum_b_max", "seeds")
_N_B = ("n_max", "b_max")
_SUITES = {
    "identities": {"check_zero_identity": _N_B, "check_two_nonzero_identity": _N_B},
    "special-cases": {"check_general_residue_law": _N_B, "check_one_vanishing_law": _N_B},
    "recursion": {"check_recursion_equivalence": _N_B},
    "oracle": {"check_oracle_equivalence": ("sum_b_max", "seeds"), "check_multiplier_bridge": ()},
    "monotonic": {"check_monotonic_vanishing": _N_B},
    "degree": {"check_degree_interpolation": ("n_max",)},
}


def _cmd_verify(args) -> int:
    suite = _SUITES[args.suite]
    taken = {flag for flags in suite.values() for flag in flags}
    for flag in _BOUNDS:
        if getattr(args, flag) is not None and flag not in taken:
            raise _Invalid(
                f"verify {args.suite} does not take --{flag.replace('_', '-')}"
            )
    results = [
        getattr(verification, name)(**{
            flag: getattr(args, flag) for flag in flags if getattr(args, flag) is not None
        })
        for name, flags in suite.items()
    ]
    all_passed = all(r.passed for r in results)
    if args.json:
        print(json.dumps([
            {
                "name": r.name,
                "checked": r.checked,
                "failures": r.failure_count,
                "examples": r.failures,
                "seconds": round(r.seconds, 2),
            }
            for r in results
        ]))
    else:
        for r in results:
            print(r.summary())
    return EXIT_OK if all_passed else EXIT_FAILED


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_profile_flags(parser):
    parser.add_argument("--mu", help="zero order and pole orders: a,b1,...,bn")
    parser.add_argument("--b", help="pole orders b1,...,bn (zero order inferred)")


def _add_structure_flags(parser):
    parser.add_argument("--rho", help="comma-separated exact residues, e.g. 2,-1,-1")
    parser.add_argument(
        "--vanishings",
        help="generator subsets as 1-based indices, e.g. \"1,2;3,4\" (empty for none)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for realized residues")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoresidual",
        description="Exact counts of single-zero differentials with fixed residues",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count one configuration")
    _add_profile_flags(count)
    _add_structure_flags(count)
    count.add_argument("--recursive", action="store_true",
                       help="cross-check with the boundary recursion")
    count.add_argument("--oracle", action="store_true",
                       help="cross-check with symbolic elimination (n <= 3)")
    count.add_argument("--trace", action="store_true",
                       help="per-level recursion term table (needs --recursive and --json)")
    count.set_defaults(func=_cmd_count)

    verify = sub.add_parser("verify", help="run a verification sweep")
    verify.add_argument("suite", choices=sorted(_SUITES))
    for flag in _BOUNDS:
        verify.add_argument("--" + flag.replace("_", "-"), type=_positive_int)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    batch = sub.add_parser("batch", help="process a JSON-lines request file")
    batch.add_argument("path")
    batch.set_defaults(func=_cmd_batch)

    multipliers = sub.add_parser(
        "multipliers", help="count polynomial maps with given fixed-point multipliers"
    )
    multipliers.add_argument("--lambdas", required=True,
                             help="comma-separated multipliers, e.g. 0,1/2,4/3")
    multipliers.add_argument("--seed", type=int, default=0)
    multipliers.add_argument("--json", action="store_true")
    multipliers.add_argument("--recursive", action="store_true")
    multipliers.add_argument("--oracle", action="store_true")
    multipliers.set_defaults(func=_cmd_multipliers)

    oracle = sub.add_parser("oracle", help="run the elimination oracle (n <= 3)")
    _add_profile_flags(oracle)
    _add_structure_flags(oracle)
    oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_Invalid, IsoresidualError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
