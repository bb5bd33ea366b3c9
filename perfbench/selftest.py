"""Self-test of the benchmark's correctness gate; no CLI job is spawned.

Usage, from the repository root::

    python3 perfbench/selftest.py

Feeds each workload's check the pinned report and altered ones, and fails
unless the gate passes the first and flags every altered report as a failed
job (a wrong answer where the report contradicts the pin, a refusal where
the program declined). The set-up probe's check is fed a domain size that
differs from the pinned one, and the traced run's cross-check is fed layer
counts that differ from the exact ones.
"""

from __future__ import annotations

import copy
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SP_PINNED = {
    "axiom": "strategyproof",
    "holds": True,
    "witness": None,
    "profiles_checked": run.N5_MEMBERS,
    "comparisons": run.N5_TRIPLES,
}
# The witness the program prints for extend-fm job (i).
EXTEND_WITNESS = {text: {"b": "1"} for text in run.EXTRAS[:5]}
EXTEND_WITNESS[run.EXTRAS[5]] = {"c": "1"}
EXTEND_PINNED = {"feasible": True, "conflict": None, "witness": EXTEND_WITNESS}


def workload(name: str, seed: int = 1) -> run.Workload:
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
        return run.make_workload(name, seed, Path(workdir))


def job(workload_name: str, name: str) -> run.Job:
    return next(j for j in workload(workload_name).jobs if j.name == name)


class ProbeRunner:
    """Stands in for run.Runner: every set-up probe exits 0 and prints ``printed``."""

    def __init__(self, printed: bytes):
        self.printed = printed

    def script(self, name: str, *args: str):
        return [name, *args]

    def spawn(self, argv):
        return run.Process(0, 0.1, 20.0, self.printed, b"", False)


def expect(label: str, outcome: run.Outcome, ok: bool, wrong: bool) -> bool:
    good = outcome.ok == ok and outcome.wrong == wrong
    print(f"{'pass' if good else 'FAIL'}  {label}: ok={outcome.ok} wrong={outcome.wrong} {outcome.reason}")
    return good


def crosscheck(label: str, job: run.Job, report, ok: bool) -> bool:
    mismatches = run._crosscheck(job, report)
    good = (not mismatches) == ok
    print(f"{'pass' if good else 'FAIL'}  {label}: {'; '.join(mismatches) or 'counts match'}")
    return good


def main() -> int:
    results = []
    sp = job("n5-sp-gamma", "check-sp")
    results.append(expect("n5 check-sp pinned report", sp.check(0, SP_PINNED), True, False))
    for key, value in (("comparisons", run.N5_TRIPLES - 1), ("holds", False), ("profiles_checked", 7235)):
        altered = dict(SP_PINNED, **{key: value})
        results.append(expect(f"n5 check-sp with {key}={value}", sp.check(0, altered), False, True))
    results.append(expect("n5 check-sp exit 1", sp.check(1, SP_PINNED), False, True))
    results.append(expect(
        "n5 check-sp cap exceeded",
        sp.check(2, {"error": "cap", "kind": "cap-exceeded"}),
        False,
        False,
    ))
    results.append(expect("n5 check-sp crash without report", sp.check(1, None), False, False))
    n5 = workload("n5-sp-gamma")
    for printed, ok in ((b"7236\n", True), (b"7235\n", False)):
        _, outcome = run.setup_probe(n5, ProbeRunner(printed))
        results.append(expect(f"n5 set-up probe printing {printed.strip().decode()}", outcome, ok, not ok))

    _, alpha = run.mixture(1)
    gamma = job("n5-sp-gamma", "gamma")
    share = {"max_dictatorial_weight": str(1 - alpha)}
    results.append(expect("n5 gamma pinned share", gamma.check(0, share), True, False))
    results.append(expect(
        "n5 gamma other share",
        gamma.check(0, {"max_dictatorial_weight": str(alpha)}),
        False,
        True,
    ))

    extend = job("extend-fm", "extend-i")
    results.append(expect("extend-fm verified witness", extend.check(0, EXTEND_PINNED), True, False))
    tampered = copy.deepcopy(EXTEND_PINNED)
    tampered["witness"][run.EXTRAS[0]] = {"a": "1"}
    results.append(expect("extend-fm witness failing verification", extend.check(0, tampered), False, True))
    infeasible = {"feasible": False, "conflict": ["x"], "witness": None}
    results.append(expect("extend-fm reported infeasible", extend.check(1, infeasible), False, True))

    traced = {"layers": {
        "lottery.sd_compare": {"calls": run.N5_TRIPLES},
        "domains.deviations": {"yielded": run.N5_TRIPLES},
    }}
    results.append(crosscheck("n5 check-sp traced with the exact counts", sp, traced, True))
    short = copy.deepcopy(traced)
    short["layers"]["domains.deviations"]["yielded"] -= 1
    results.append(crosscheck("n5 check-sp traced with one deviation missing", sp, short, False))
    results.append(crosscheck("n5 gamma traced calling sd_compare", gamma, traced, False))
    results.append(crosscheck("n5 check-sp without a trace report", sp, None, False))

    if not all(results):
        print("gate self-test failed")
        return 1
    print(f"gate self-test passed ({len(results)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
