"""Command-line front end.

One subcommand per task: enumerate domains, check axioms, decompose schemes
into mixtures, bound dictatorial weight, build adjacency paths, test
extension feasibility, and run the check batteries.  Reports go to stdout as
JSON (default) or indented text.  Exit status: 0 when the result is positive
(holds, feasible, verified), 1 when a violation or negative result was found,
2 for usage errors and exceeded caps (enumeration, Fourier-Motzkin rows).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from .adpath import (
    ParityMismatchError,
    build_adpath,
    build_adpath_fixing,
    validate_adpath,
)
from .analysis import (
    InfeasibleModelError,
    extension_feasibility,
    max_dictatorial_weight,
    probe_coefficients,
    verify_mixture,
)
from .axioms import checker_for, replay_witness
from .core import alternative_index, parse_profiles, parse_rational
from .domains import (
    CapExceededError,
    TieBreakingCondorcetDomain,
    capped_enumeration,
    parse_domain,
)
from .sds import CondorcetRule, TieBreakingCondorcetRule, parse_sds
from .theorems import DEFAULT_TIEBREAKERS, run_battery

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

AXIOM_ALIASES = {
    "sp": "strategyproof",
    "gsp": "group-strategyproof",
    "non-imposition": "non-imposition",
    "expost": "ex-post-efficient",
    "localized": "localized",
    "non-perverse": "non-perverse",
}


def _parse_alternative(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        return alternative_index(text)


def _load_profiles(path: str) -> List:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_profiles(handle.read())


def _single_profile(path: str):
    profiles = _load_profiles(path)
    if len(profiles) != 1:
        raise ValueError(f"{path} holds {len(profiles)} profiles, expected exactly 1")
    return profiles[0]


def _domain_and_scheme(domain_text: str, args):
    """The parsed domain and ``--sds`` scheme; a domain equal to the scheme's
    validity domain is that object, so both share one member table."""
    dom = parse_domain(domain_text, args.n, args.m)
    sds = parse_sds(args.sds, args.n, args.m)
    return (sds.valid_domain if sds.valid_domain == dom else dom), sds


def _render_text(payload, indent: int = 0) -> List[str]:
    pad = "  " * indent
    lines: List[str] = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            elif isinstance(value, str) and "\n" in value:
                lines.append(f"{pad}{key}: {' | '.join(value.splitlines())}")
            else:
                rendered = value if not isinstance(value, (dict, list)) else "(empty)"
                lines.append(f"{pad}{key}: {rendered}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(value, indent + 1))
            elif isinstance(value, str) and "\n" in value:
                lines.append(f"{pad}- {' | '.join(value.splitlines())}")
            else:
                lines.append(f"{pad}- {value}")
    else:
        lines.append(f"{pad}{payload}")
    return lines


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(_render_text(payload)) + "\n")


# -- subcommand handlers -------------------------------------------------------


def _cmd_enumerate(args) -> Tuple[int, Dict]:
    dom = parse_domain(args.domain, args.n, args.m)
    members = dom.members()
    payload: Dict = {
        "domain": dom.describe(),
        "n": args.n,
        "m": args.m,
        "count": len(members),
    }
    if not args.count_only:
        payload["profiles"] = [p.to_text() for p in members]
    return EXIT_OK, payload


def _cmd_check(args) -> Tuple[int, Dict]:
    dom, sds = _domain_and_scheme(args.domain, args)
    if args.replay:
        with open(args.replay, "r", encoding="utf-8") as handle:
            verdict_json = json.load(handle)
        reproduced = replay_witness(sds, dom, verdict_json)
        payload = {
            "axiom": verdict_json.get("axiom"),
            "replayed": reproduced,
        }
        return (EXIT_OK if reproduced else EXIT_NEGATIVE), payload
    if args.axiom == "all":
        names = list(AXIOM_ALIASES.values())
    else:
        names = [AXIOM_ALIASES[args.axiom]]
    verdicts: Dict[str, Dict] = {}
    all_hold = True
    for name in names:
        checker = checker_for(name)
        if name == "group-strategyproof":
            verdict = checker(sds, dom, max_coalition=args.max_coalition)
        else:
            verdict = checker(sds, dom)
        verdicts[name] = verdict.to_json_dict()
        all_hold = all_hold and verdict.holds
    payload = verdicts[names[0]] if len(names) == 1 else {"verdicts": verdicts}
    return (EXIT_OK if all_hold else EXIT_NEGATIVE), payload


def _cmd_decompose(args) -> Tuple[int, Dict]:
    dom, sds = _domain_and_scheme(args.domain, args)
    anchor = _parse_alternative(args.anchor) if args.anchor is not None else 0
    coeffs = probe_coefficients(sds, anchor)
    if isinstance(dom, TieBreakingCondorcetDomain):
        reference = TieBreakingCondorcetRule(dom.tiebreaker, args.n)
    else:
        reference = CondorcetRule(args.n, args.m)
    verdict = verify_mixture(sds, dom, coeffs, reference)
    payload = {
        "anchor": anchor,
        "coefficients": coeffs.to_json_dict(),
        "nonnegative": coeffs.nonnegative,
        "verification": verdict.to_json_dict(),
    }
    return (EXIT_OK if verdict.holds else EXIT_NEGATIVE), payload


def _cmd_gamma(args) -> Tuple[int, Dict]:
    dom, sds = _domain_and_scheme(args.domain, args)
    try:
        value = max_dictatorial_weight(sds, dom)
    except InfeasibleModelError as exc:
        # the axiom and witness fields make the report a `check --replay` input
        return EXIT_NEGATIVE, {
            "axiom": "strategyproof",
            "error": str(exc),
            "strategyproof": False,
            "witness": exc.witness.to_json_dict(),
        }
    return EXIT_OK, {"max_dictatorial_weight": str(value)}


def _cmd_adpath(args) -> Tuple[int, Dict]:
    dom = parse_domain(args.domain, args.n, args.m)
    start = _single_profile(args.from_file)
    goal = _single_profile(args.to_file)
    fixed: Optional[int] = None
    if args.fix is not None:
        fixed = _parse_alternative(args.fix)
        path = build_adpath_fixing(dom, start, goal, fixed)
    else:
        path = build_adpath(dom, start, goal)
    verdict = validate_adpath(dom, path, fixed=fixed)
    payload = {
        "length": len(path),
        "path": path.to_json_dict(),
        "validation": verdict.to_json_dict(),
    }
    return (EXIT_OK if verdict.holds else EXIT_NEGATIVE), payload


def _cmd_extend(args) -> Tuple[int, Dict]:
    base, sds = _domain_and_scheme(args.base, args)
    extras = _load_profiles(args.extras)
    result = extension_feasibility(
        sds, base, extras, require_non_imposition=args.require_non_imposition
    )
    return (EXIT_OK if result.feasible else EXIT_NEGATIVE), result.to_json_dict()


def _cmd_theorems(args) -> Tuple[int, Dict]:
    tiebreakers = tuple(args.tiebreak) if args.tiebreak else DEFAULT_TIEBREAKERS
    results = run_battery(
        args.which,
        n=args.n,
        m=args.m,
        tiebreakers=tiebreakers,
        step=parse_rational(args.grid_step),
        seed=args.seed,
    )
    all_ok = all(r["ok"] for r in results)
    payload = {"battery": args.which, "all_ok": all_ok, "results": results}
    return (EXIT_OK if all_ok else EXIT_NEGATIVE), payload


# -- argument parsing ----------------------------------------------------------


def _add_common(parser, need_n: bool = True) -> None:
    parser.add_argument("--n", type=int, required=need_n, help="number of voters")
    parser.add_argument("--m", type=int, default=3, help="number of alternatives")
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", help="report format"
    )
    parser.add_argument(
        "--max-profiles",
        type=int,
        default=None,
        help="enumeration cap for this invocation (overrides CONDLAB_MAX_PROFILES)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condlab",
        description="verification toolkit for randomized voting rules on majority domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list or count the members of a domain")
    _add_common(p)
    p.add_argument("--domain", required=True, help="domain specification")
    p.add_argument("--count-only", action="store_true", help="print only the size")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("check", help="check an axiom for a scheme on a domain")
    _add_common(p)
    p.add_argument("--domain", required=True)
    p.add_argument("--sds", required=True, help="scheme specification")
    p.add_argument(
        "--axiom",
        choices=tuple(AXIOM_ALIASES) + ("all",),
        default="sp",
        help="axiom to check",
    )
    p.add_argument(
        "--max-coalition", type=int, default=None, help="coalition size bound for gsp"
    )
    p.add_argument(
        "--replay",
        default=None,
        metavar="WITNESSFILE",
        help="re-validate a previously reported verdict instead of scanning",
    )
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("decompose", help="probe mixture coefficients and verify them")
    _add_common(p)
    p.add_argument("--domain", required=True)
    p.add_argument("--sds", required=True)
    p.add_argument("--anchor", default=None, help="anchor alternative for probing")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("gamma", help="maximum total dictatorial weight of a scheme")
    _add_common(p)
    p.add_argument("--domain", required=True)
    p.add_argument("--sds", required=True)
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser("adpath", help="build a swap path between two profiles")
    _add_common(p)
    p.add_argument("--domain", required=True)
    p.add_argument("--from", dest="from_file", required=True, metavar="FILE")
    p.add_argument("--to", dest="to_file", required=True, metavar="FILE")
    p.add_argument("--fix", default=None, help="alternative whose contours must not move")
    p.set_defaults(handler=_cmd_adpath)

    p = sub.add_parser("extend", help="test extension feasibility onto extra profiles")
    _add_common(p)
    p.add_argument("--base", required=True, help="base domain specification")
    p.add_argument("--sds", required=True)
    p.add_argument("--extras", required=True, metavar="FILE", help="extra profiles")
    p.add_argument("--require-non-imposition", action="store_true")
    p.set_defaults(handler=_cmd_extend)

    p = sub.add_parser("theorems", help="run one of the check batteries")
    _add_common(p, need_n=False)
    p.add_argument("--which", type=int, choices=(1, 2, 3), required=True)
    p.add_argument(
        "--tiebreak",
        action="append",
        default=None,
        metavar="ORDER",
        help="tie-breaking order (repeatable)",
    )
    p.add_argument("--grid-step", default="1/4", help="grid resolution, e.g. 1/4")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_theorems)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with capped_enumeration(args.max_profiles):
            code, payload = args.handler(args)
    except CapExceededError as exc:
        _emit({"error": str(exc), "kind": "cap-exceeded"}, args.format)
        return EXIT_USAGE
    except ParityMismatchError as exc:
        _emit({"error": str(exc), "kind": "parity-mismatch"}, args.format)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        _emit({"error": str(exc)}, args.format)
        return EXIT_USAGE
    _emit(payload, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
