"""Command-line front end.

Subcommands: count, verify, batch, multipliers, oracle.  All numbers in
JSON output are decimal strings so arbitrary-precision values survive any
JSON consumer.  Exit codes: 0 success, 1 verification or batch-line
failure, 2 validation error, 3 internal cross-check mismatch.
"""

from __future__ import annotations

import argparse
import inspect
import json
import re
import sys
from dataclasses import dataclass
from functools import lru_cache

from . import verification
from .counting import count_closed_form, degenerate_simple_poles
from .errors import IsoresidualError, ParseError
from .exactarith import GaussianRational, parse_gaussian_rational
from .levelgraph import count_recursive
from .oracle import multipliers_to_residues, oracle_count
from .partitions import _CACHED_STRUCTURES, zero_sum_plan
from .profiles import (
    OrderProfile,
    ResidueTuple,
    VanishingStructure,
    canonical_mask,
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


# A report is a tree built here: nothing holds itself, so the encoder skips
# its cycle check.
_report_json = json.JSONEncoder(check_circular=False).encode

# A term's partitions before its listing text is spliced in.  Every report
# field is parsed and printed again, so none is this string.
_SLOT = "\0"


class _Invalid(Exception):
    pass


# What bad input raises; the package's own input errors are ValueErrors.
_ERRORS = (_Invalid, IsoresidualError, ValueError)

# The fields of a request, the same for a batch line and for the flags of
# ``count``, ``oracle`` and ``multipliers``; any other key is an error.
_FIELDS = ("mu", "b", "rho", "vanishings", "seed", "recursive", "oracle")


@dataclass(frozen=True)
class _Request:
    """One validated count: what a batch line or the flags ask for."""

    profile: OrderProfile
    structure: VanishingStructure
    residues: ResidueTuple | None
    seed: int
    recursive: bool
    oracle: bool

    def __post_init__(self):
        if self.oracle and self.profile.n > 3:
            raise _Invalid("the elimination oracle handles at most three poles")


# What int() reads in base 10; it refuses such text only past the digit
# limit.  Compiled on first use, which only a refused part reaches.
_NUMERAL = r"\s*[+-]?\d+(?:_\d+)*\s*"


def _ints(text: str, key: str) -> list[int]:
    """Comma-separated integers, as in ``--b`` or a ``vanishings`` subset."""
    values = []
    for part in text.split(","):
        try:
            values.append(int(part))
        except ValueError:
            if re.fullmatch(_NUMERAL, part):
                raise _Invalid(f"bad {key}: {_too_long()}") from None
            raise _Invalid(f"bad {key}: {part.strip()!r} is not an integer") from None
    return values


def _too_long() -> str:
    return f"a number has more than {sys.get_int_max_str_digits()} digits"


def _gaussians(parts, key: str) -> tuple[GaussianRational, ...]:
    """Exact Gaussian rationals from their text forms."""
    values = []
    for part in parts:
        try:
            values.append(parse_gaussian_rational(part))
        except ZeroDivisionError:
            raise _Invalid(f"bad {key}: zero denominator in {part!r}") from None
        except ParseError as exc:
            raise _Invalid(f"bad {key}: {exc} in {part!r}") from None
        except ValueError:  # int() refuses a number this long
            raise _Invalid(f"bad {key}: {_too_long()}") from None
    return tuple(values)


def _request_fields(args) -> dict:
    """The request flags given to a command, as batch-line fields."""
    fields = {}
    for key in _FIELDS:
        value = getattr(args, key, None)
        if value is not None and value is not False:
            fields[key] = _ints(value, key) if key in ("mu", "b") else value
    return fields


def _one_of(fields: dict, first: str, second: str) -> str:
    if (first in fields) == (second in fields):
        raise _Invalid(f"exactly one of {first} or {second} is required")
    return first if first in fields else second


def _parse_request(fields) -> _Request:
    """Validate a request's fields.  A fault raises ``_Invalid`` naming the
    field, or the ``ValueError`` of the profile or structure it breaks."""
    if type(fields) is not dict:
        raise _Invalid("a request must be a JSON object")
    unknown = sorted(set(fields).difference(_FIELDS))
    if unknown:
        raise _Invalid(f"unknown field {', '.join(map(repr, unknown))}")
    key = _one_of(fields, "mu", "b")
    orders = fields[key]
    # type() and not isinstance(): a bool is an int but no order or seed.
    if type(orders) is not list or any(type(x) is not int for x in orders):
        raise _Invalid(f"{key} must be a list of integers")
    if key == "mu":
        if len(orders) < 3:
            raise _Invalid("mu needs the zero order and at least two pole orders")
        profile = OrderProfile(orders[0], tuple(orders[1:]))
    else:
        profile = OrderProfile.from_pole_orders(orders)
    seed = fields.get("seed", 0)
    if type(seed) is not int:
        raise _Invalid("seed must be an integer")
    switches = {name: fields.get(name, False) for name in ("recursive", "oracle")}
    for name, value in switches.items():
        if type(value) is not bool:
            raise _Invalid(f"{name} must be true or false")

    if _one_of(fields, "rho", "vanishings") == "rho":
        rho = fields["rho"]
        if isinstance(rho, str):
            rho = rho.split(",")
        elif type(rho) is not list or not all(isinstance(p, str) for p in rho):
            raise _Invalid("rho must be a string or a list of strings")
        residues = ResidueTuple(_gaussians(rho, "rho"))
        if residues.n != profile.n:
            raise _Invalid(f"{residues.n} residues given for {profile.n} poles")
        structure = vanishing_subsets(residues)
    else:
        residues = None
        text = fields["vanishings"]
        if not isinstance(text, str):
            raise _Invalid("vanishings must be a string")
        masks = []
        for chunk in text.split(";"):
            if chunk.strip():
                try:
                    mask = mask_from_indices(_ints(chunk, "vanishings"), profile.n)
                    masks.append(canonical_mask(mask, profile.n))
                except ValueError as exc:
                    raise _Invalid(f"bad vanishings: {exc}") from None
        structure = structure_from_generators(profile.n, masks)
    return _Request(profile, structure, residues, seed, **switches)


def _build_report(request: _Request, *, trace=False):
    """Shared report builder for count, batch and multipliers paths."""
    profile, structure, residues = request.profile, request.structure, request.residues
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
    report["input"]["seed"] = request.seed
    report["closure"] = [list(indices_from_mask(m)) for m in structure.sorted_closure()]
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
    if request.recursive:
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
    if request.oracle:
        rho = residues if residues is not None else realize_residues(structure, request.seed)
        oracle_total = oracle_count(profile, rho)
        entry = {
            "count": str(oracle_total),
            "rho": [str(v) for v in rho.values],
            "match": oracle_total == breakdown.total,
        }
        report["oracle"] = entry
        mismatch = mismatch or not entry["match"]
    return report, mismatch


@lru_cache(maxsize=_CACHED_STRUCTURES)
def _listing_text(structure: VanishingStructure) -> dict[int, str]:
    """Each term's ``partitions`` as JSON text, by part count s: the bytes
    ``_report_json`` gives the sorted listing, built from the plan's moves.

    A remaining set's tails into c parts are kept as one string, each tail
    written ", [part], [part]" and tails joined by a newline, which no part
    text holds; prefixing a part to every tail is then one ``replace``.
    """
    plan = zero_sum_plan(structure)
    names = {part: ", " + _report_json(list(indices_from_mask(part))) for part in plan.parts}
    tails: dict[int, dict[int, str]] = {0: {0: ""}}
    for remaining, parts in plan.moves.items():
        by_count: dict[int, list[str]] = {}
        for part in parts:  # in increasing order
            head = names[part]
            for count, text in tails[remaining ^ part].items():
                by_count.setdefault(count + 1, []).append(
                    head + text.replace("\n", "\n" + head)
                )
        tails[remaining] = {c: "\n".join(texts) for c, texts in by_count.items()}
    return {  # the whole pole set comes last
        s: "[[" + text[2:].replace("\n, ", "], [") + "]]"
        for s, text in tails[remaining].items()
    }


def _report_text(report: dict, structure) -> str:
    """The JSON report with each term's partitions, which only JSON prints."""
    for term in report["terms"]:
        term["partitions"] = _SLOT
    rest = _report_json(report).split(_report_json(_SLOT))
    listing = _listing_text(structure)
    pieces = [rest[0]]
    for term, after in zip(report["terms"], rest[1:]):
        pieces += (listing[term["s"]], after)
    return "".join(pieces)


def _emit(report: dict, structure, as_json: bool):
    if as_json:
        print(_report_text(report, structure))
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


def _cmd_count(args) -> int:
    for needed in ("recursive", "json"):
        if args.trace and not getattr(args, needed):
            raise _Invalid(f"--trace needs --{needed}")
    request = _parse_request(_request_fields(args))
    report, mismatch = _build_report(request, trace=args.trace)
    _emit(report, request.structure, args.json)
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _load(line: str):
    """A batch line's JSON value; what the decoder refuses is a typed error."""
    try:
        return json.loads(line)
    except RecursionError:  # the decoder recurses once per level of nesting
        raise _Invalid("the line nests too deeply to read") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # int() refuses a number this long
        raise _Invalid(_too_long()) from None


def _decoded(raw: bytes) -> str:
    """A batch line's text, stripped; bytes that are not UTF-8 are a typed
    error for that line alone."""
    try:
        return raw.decode("utf-8").strip()
    except UnicodeDecodeError:
        raise _Invalid("the line is not valid UTF-8") from None


def _cmd_batch(args) -> int:
    any_failed = False
    any_mismatch = False
    try:
        stream = open(args.path, "rb")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    with stream:
        # Each line is decoded on its own; splitlines() ends lines at \n, \r
        # and \r\n, as a text file does.
        lines = (line for chunk in stream for line in chunk.splitlines())
        for line_no, raw in enumerate(lines, start=1):
            try:
                line = _decoded(raw)
                if not line:
                    continue
                request = _parse_request(_load(line))
                report, mismatch = _build_report(request)
            except _ERRORS as exc:
                any_failed = True
                print(json.dumps({"line": line_no, "error": str(exc)}))
                continue
            any_mismatch = any_mismatch or mismatch
            print(_report_text({**report, "line": line_no}, request.structure))
    if any_failed:
        return EXIT_FAILED
    return EXIT_MISMATCH if any_mismatch else EXIT_OK


def _cmd_multipliers(args) -> int:
    lams = _gaussians(args.lambdas.split(","), "lambdas")
    try:
        rho = [str(v) for v in multipliers_to_residues(lams).values]
    except IsoresidualError:
        raise
    except ValueError:  # str() refuses a number this long, here or in a message
        raise _Invalid(f"bad lambdas: {_too_long()}") from None
    request = _parse_request({**_request_fields(args), "b": [1] * len(rho), "rho": rho})
    report, mismatch = _build_report(request)
    report["input"]["lambdas"] = [str(v) for v in lams]
    _emit(report, request.structure, args.json)
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _cmd_oracle(args) -> int:
    """The oracle's entry of a ``count --oracle`` report, with its closed form."""
    request = _parse_request({**_request_fields(args), "oracle": True})
    report, mismatch = _build_report(request)
    given, entry = report["input"], report["oracle"]
    if args.json:
        print(json.dumps({
            "input": {"mu": given["mu"], "rho": entry["rho"], "seed": given["seed"]},
            "oracle_count": entry["count"],
            "closed_form": report["total"],
            "match": entry["match"],
        }))
    else:
        status = "matches" if entry["match"] else "MISMATCH"
        print(f"oracle count = {entry['count']}, "
              f"closed form = {report['total']} ({status})")
    return EXIT_MISMATCH if mismatch else EXIT_OK


# The checks behind each suite, by name in ``verification``.  The verify
# bounds each one takes are the parameters of its signature, read here once
# so that a check replaced later still takes what the real one does.
_SUITES = {
    "identities": ("check_zero_identity", "check_two_nonzero_identity"),
    "special-cases": ("check_general_residue_law", "check_one_vanishing_law"),
    "recursion": ("check_recursion_equivalence",),
    "oracle": ("check_oracle_equivalence", "check_multiplier_bridge"),
    "monotonic": ("check_monotonic_vanishing",),
    "degree": ("check_degree_interpolation",),
}
_TAKES = {
    name: tuple(inspect.signature(getattr(verification, name)).parameters)
    for names in _SUITES.values()
    for name in names
}
_BOUNDS = ("n_max", "b_max", "sum_b_max", "seeds")


def _cmd_verify(args) -> int:
    suite = _SUITES[args.suite]
    given = {flag: getattr(args, flag) for flag in _BOUNDS if getattr(args, flag) is not None}
    for flag in given:
        if not any(flag in _TAKES[name] for name in suite):
            raise _Invalid(
                f"verify {args.suite} does not take --{flag.replace('_', '-')}"
            )
    results = [
        getattr(verification, name)(**{
            flag: value for flag, value in given.items() if flag in _TAKES[name]
        })
        for name in suite
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoresidual",
        description="Exact counts of single-zero differentials with fixed residues",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The flags of a request, in the groups that commands share: ``count``
    # takes all three, ``oracle`` the first two and ``multipliers`` the last two.
    given, output, checks = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    given.add_argument("--mu", help="zero order and pole orders: a,b1,...,bn")
    given.add_argument("--b", help="pole orders b1,...,bn (zero order inferred)")
    given.add_argument("--rho", help="comma-separated exact residues, e.g. 2,-1,-1")
    given.add_argument(
        "--vanishings",
        help="generator subsets as 1-based indices, e.g. \"1,2;3,4\" (empty for none)",
    )
    output.add_argument("--seed", type=int, help="seed for realized residues (default 0)")
    output.add_argument("--json", action="store_true", help="emit a JSON report")
    checks.add_argument("--recursive", action="store_true",
                        help="cross-check with the boundary recursion")
    checks.add_argument("--oracle", action="store_true",
                        help="cross-check with symbolic elimination (n <= 3)")

    count = sub.add_parser(
        "count", parents=[given, output, checks], help="count one configuration"
    )
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
        "multipliers", parents=[output, checks],
        help="count polynomial maps with given fixed-point multipliers",
    )
    multipliers.add_argument("--lambdas", required=True,
                             help="comma-separated multipliers, e.g. 0,1/2,4/3")
    multipliers.set_defaults(func=_cmd_multipliers)

    oracle = sub.add_parser(
        "oracle", parents=[given, output], help="run the elimination oracle (n <= 3)"
    )
    oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
