"""Closed-loop benchmark of the condlab command line.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or ``all`` to run each in turn. One
client runs one CLI job at a time, each in a fresh ``python -m condlab.cli``
process with ``PYTHONPATH=src``, so every job starts with cold caches as it
does for a user. All times are taken from outside: spawn to exit, with the
child's peak RSS from ``os.wait4``. ``setup_s`` comes from a separate probe
process (``probe.py``) that stops after import, spec parsing and domain
enumeration.

With ``--trace 0`` the run makes one untimed warm-up probe, then repeats the
workload's jobs until ``--seconds`` have passed (at least two rounds, and at
least three set-up probes) and reports medians of the end-to-end metrics. With ``--trace 1`` it runs one
untraced round and one round under ``tracer.py`` and reports the per-layer
metrics and the tracing overhead.

Every job's exit code and report are checked against pinned results after
the timed region; extension witnesses are verified there. The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``failed`` counts jobs with a wrong exit code or a wrong or
unverifiable result; ``correct`` is false only when a job printed a result
that contradicts the pinned one (a refusal such as an exceeded cap is a
failure, not a wrong answer).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

HARD_LIMIT_S = 165.0  # a run must exit within 180 s, checks included
# Every run times at least MIN_ROUNDS rounds, so that even extend-fm, whose
# round can take longer than --seconds, is measured over more than one round.
MIN_ROUNDS = 2
# Set-up is probed in batches of at least PROBE_BATCH_S before each round,
# until there are MIN_SETUP_PROBES probes covering MIN_SETUP_S; a probe is
# short (0.1 to 0.3 s), so most runs take a median of ten or more.
PROBE_BATCH_S = 0.5
MIN_SETUP_PROBES = 3
MIN_SETUP_S = 2.0

# Pinned results. They do not depend on the seed: a strategyproofness proof
# on the n=5 majority-winner domain visits every member, voter and in-domain
# deviation whatever the mixture weights are.
N5_MEMBERS = 7_236
N5_TRIPLES = 169_560
EXTEND_BASE_MEMBERS = 68
# (profile, voter, deviation) triples the extension model constrains for the
# six extra profiles: every in-domain unilateral neighbour, in both
# directions. The b/c-swapped set has the same count by symmetry.
EXTEND_TRIPLES = 92

# The first six canonical profiles outside condorcet-for:a at n=3, m=3, in
# canonical order. The sixth is the majority cycle, which forces
# Fourier-Motzkin elimination; swapping b and c gives an instance that is
# feasible by symmetry but whose elimination order blows past the row cap.
EXTRAS = (
    "a>b>c\nb>a>c\nb>a>c",
    "a>b>c\nb>a>c\nb>c>a",
    "a>b>c\nb>a>c\nc>b>a",
    "a>b>c\nb>c>a\nb>a>c",
    "a>b>c\nb>c>a\nb>c>a",
    "a>b>c\nb>c>a\nc>a>b",
)
SWAP_BC = str.maketrans("bc", "cb")

ALPHA_GRID = ("1/5", "2/5", "3/5", "4/5")
RD_WEIGHTS = ("1/10", "1/10", "1/5", "3/10", "3/10")


class HarnessError(RuntimeError):
    """The benchmark cannot produce a result: a set-up probe crashed or timed out."""


@dataclass
class Outcome:
    ok: bool
    wrong: bool = False  # printed a result that contradicts the pinned one
    reason: str = ""


@dataclass(frozen=True)
class Job:
    name: str
    args: Tuple[str, ...]  # condlab CLI arguments
    triples: int  # (profile, voter, deviation) triples decided when it succeeds
    check: Callable[[int, Optional[object]], Outcome]
    # Exact per-layer counts its traced run must report ("layer.key": value).
    crosschecks: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    domain: str
    sds: str
    members: int
    jobs: Tuple[Job, ...]
    # The triple rate is taken over the scan (wall minus each job's set-up)
    # only where the scan is most of the job; elsewhere the difference of two
    # noisy times would be ill-conditioned and the rate is over wall time.
    rate_excludes_setup: bool


@dataclass
class Process:
    code: int
    wall: float
    rss_mib: float
    stdout: bytes
    stderr: bytes
    timed_out: bool


# -- inputs -------------------------------------------------------------------


def mixture(seed: int) -> Tuple[str, Fraction]:
    """Seeded nonnegative mixture of the majority rule and random dictatorship.

    The seed picks the weight on ``cond`` from ALPHA_GRID and deals the
    dictatorial weights RD_WEIGHTS to the five voters. Exact arithmetic
    costs depend on the denominators involved, so every grid point shares
    them and no seed is cheaper than another.
    """
    rng = random.Random(seed)
    alpha = Fraction(rng.choice(ALPHA_GRID))
    weights = list(RD_WEIGHTS)
    rng.shuffle(weights)
    return f"mix:{alpha}*cond+{1 - alpha}*rd:{','.join(weights)}", alpha


def _refusal(code: int, report) -> Optional[Outcome]:
    if code == 2:
        kind = report.get("kind", "error") if isinstance(report, dict) else "no report"
        return Outcome(False, reason=f"refused ({kind})")
    if report is None:
        return Outcome(False, reason=f"exit {code} without a report")
    return None


def expect(want_code: int, want_report: dict):
    def check(code, report) -> Outcome:
        refused = _refusal(code, report)
        if refused:
            return refused
        if code != want_code or report != want_report:
            return Outcome(False, True, f"exit {code}, report differs from the pinned one")
        return Outcome(True)

    return check


def check_extension(extras: Tuple[str, ...]):
    def check(code, report) -> Outcome:
        refused = _refusal(code, report)
        if refused:
            return refused
        if code != 0 or not isinstance(report, dict) or report.get("feasible") is not True:
            return Outcome(False, True, f"exit {code}, not reported feasible")
        witness = report.get("witness")
        if not isinstance(witness, dict) or set(witness) != set(extras):
            return Outcome(False, True, "witness does not cover the extra profiles")
        try:
            verified = verify_extension(extras, witness)
        except Exception as exc:  # any failure to rebuild the witness is a bad witness
            return Outcome(False, True, f"witness unverifiable: {exc!r}")
        if not verified:
            return Outcome(False, True, "witness fails verify_extension_witness")
        return Outcome(True)

    return check


def verify_extension(extras: Tuple[str, ...], witness: dict) -> bool:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from condlab.analysis import verify_extension_witness
    from condlab.core import Profile
    from condlab.domains import CondorcetForDomain
    from condlab.lottery import Lottery
    from condlab.sds import CondorcetRule

    assignment = {Profile.from_text(k): Lottery.from_json_dict(v, 3) for k, v in witness.items()}
    profiles = [Profile.from_text(text) for text in extras]
    return verify_extension_witness(CondorcetRule(3, 3), CondorcetForDomain(0, 3, 3), profiles, assignment)


def make_workload(name: str, seed: int, workdir: Path) -> Workload:
    if name == "n5-sp-gamma":
        spec, alpha = mixture(seed)
        common = ("--n", "5", "--domain", "condorcet", "--sds", spec)
        pinned_sp = {
            "axiom": "strategyproof",
            "holds": True,
            "witness": None,
            "profiles_checked": N5_MEMBERS,
            "comparisons": N5_TRIPLES,
        }
        sp = Job(
            "check-sp",
            ("check",) + common + ("--axiom", "sp"),
            N5_TRIPLES,
            expect(0, pinned_sp),
            {"lottery.sd_compare.calls": N5_TRIPLES, "domains.deviations.yielded": N5_TRIPLES},
        )
        gamma = Job(
            "gamma",
            ("gamma",) + common,
            N5_TRIPLES,
            expect(0, {"max_dictatorial_weight": str(1 - alpha)}),
            {"lottery.sd_compare.calls": 0, "domains.deviations.yielded": N5_TRIPLES},
        )
        return Workload(name, 5, 3, "condorcet", spec, N5_MEMBERS, (sp, gamma), True)
    if name == "extend-fm":
        jobs = []
        for label, extras in (("i", EXTRAS), ("ii", tuple(t.translate(SWAP_BC) for t in EXTRAS))):
            path = workdir / f"extras-{label}.prof"
            path.write_text("\n\n".join(extras) + "\n", encoding="utf-8")
            args = ("extend", "--n", "3", "--base", "condorcet-for:a", "--sds", "cond", "--extras", str(path))
            jobs.append(Job(f"extend-{label}", args, EXTEND_TRIPLES, check_extension(extras)))
        return Workload(name, 3, 3, "condorcet-for:a", "cond", EXTEND_BASE_MEMBERS, tuple(jobs), False)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("n5-sp-gamma", "extend-fm")


# -- processes ----------------------------------------------------------------


def _report(stdout: bytes):
    try:
        return json.loads(stdout.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


class Runner:
    """Spawns one child at a time and times it from spawn to exit."""

    def __init__(self, workdir: Path, hard_deadline: float):
        self.workdir = workdir
        self.hard_deadline = hard_deadline
        self.env = dict(os.environ)
        for var in ("CONDLAB_THREADS", "CONDLAB_MAX_PROFILES"):
            self.env.pop(var, None)
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONHASHSEED"] = "0"
        self._count = 0

    def cli(self, *args: str) -> List[str]:
        return [sys.executable, "-m", "condlab.cli", *args]

    def script(self, name: str, *args: str) -> List[str]:
        return [sys.executable, str(Path(__file__).resolve().parent / name), *args]

    def spawn(self, argv: List[str]) -> Process:
        self._count += 1
        out_path = self.workdir / f"{self._count}.out"
        err_path = self.workdir / f"{self._count}.err"
        remaining = self.hard_deadline - time.monotonic()
        if remaining <= 0:
            return Process(-1, 0.0, 0.0, b"", b"hard time limit reached", True)
        timed_out = reaped = False
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)

            def kill(signum, frame):
                nonlocal timed_out
                if not reaped:
                    timed_out = True
                    proc.kill()

            previous = signal.signal(signal.SIGALRM, kill)
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
        out_path.unlink()
        err_path.unlink()
        return Process(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr, timed_out)


# -- measurement --------------------------------------------------------------


@dataclass
class JobRun:
    job: Job
    process: Process
    outcome: Optional[Outcome] = None


def run_round(workload: Workload, runner: Runner, traced_dir: Optional[Path] = None) -> List[JobRun]:
    runs = []
    for job in workload.jobs:
        if traced_dir is None:
            argv = runner.cli(*job.args)
        else:
            argv = runner.script("tracer.py", str(traced_dir / f"{job.name}.json"), "--", *job.args)
        runs.append(JobRun(job, runner.spawn(argv)))
        if runs[-1].process.timed_out:
            break
    return runs


def setup_probe(workload: Workload, runner: Runner) -> Tuple[float, Outcome]:
    """Times one probe and checks the domain size it prints against the pinned one."""
    args = (str(workload.n), str(workload.m), workload.domain, workload.sds)
    process = runner.spawn(runner.script("probe.py", *args))
    printed = process.stdout.strip()
    if process.code != 0 or not printed.isdigit():
        raise HarnessError(
            f"set-up probe failed (exit {process.code}, printed {process.stdout[:80]!r}): "
            + process.stderr.decode("utf-8", "replace")[-400:]
        )
    if int(printed) != workload.members:
        reason = f"set-up probe: domain has {int(printed)} members, expected {workload.members}"
        return process.wall, Outcome(False, True, reason)
    return process.wall, Outcome(True)


def verify(rounds: List[List[JobRun]]) -> None:
    """Check every job against its pinned result; identical reports are checked once."""
    seen: Dict[tuple, Outcome] = {}
    for runs in rounds:
        for run in runs:
            process = run.process
            if process.timed_out:
                run.outcome = Outcome(False, reason="killed at the run's time limit")
                continue
            key = (run.job.name, process.code, process.stdout)
            if key not in seen:
                seen[key] = run.job.check(process.code, _report(process.stdout))
            run.outcome = seen[key]


def measure(workload: Workload, runner: Runner, seconds: float) -> Tuple[dict, List[List[JobRun]]]:
    """Passes of set-up probes and one round of jobs until ``seconds`` have passed."""
    setup: List[float] = []
    probe_failures = set()
    rounds: List[List[JobRun]] = []
    # Untimed warm-up: compiles the sources and fills the page cache once.
    _, outcome = setup_probe(workload, runner)
    if not outcome.ok:
        probe_failures.add(outcome.reason)
    start = time.monotonic()
    while time.monotonic() < runner.hard_deadline:
        progressed = False
        if len(setup) < MIN_SETUP_PROBES or sum(setup) < MIN_SETUP_S or time.monotonic() - start < seconds:
            batch = 0.0
            while batch < PROBE_BATCH_S:
                wall, outcome = setup_probe(workload, runner)
                setup.append(wall)
                batch += wall
                if not outcome.ok:
                    probe_failures.add(outcome.reason)
            progressed = True
        if len(rounds) < MIN_ROUNDS or time.monotonic() - start < seconds:
            rounds.append(run_round(workload, runner))
            progressed = True
            if rounds[-1][-1].process.timed_out:
                break
        if not progressed:
            break
    if not setup:
        raise HarnessError("no set-up probe finished within the run's time limit")
    verify(rounds)

    setup_s = statistics.median(setup)
    walls = [sum(r.process.wall for r in runs) for runs in rounds]
    rates = []
    for runs, wall in zip(rounds, walls):
        triples = sum(r.job.triples for r in runs if r.outcome.ok)
        scan = wall - setup_s * len(runs) if workload.rate_excludes_setup else wall
        rates.append(triples / scan if triples and scan > 0 else 0.0)
    attempted = sum(len(runs) for runs in rounds)
    ok = sum(r.outcome.ok for runs in rounds for r in runs)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(max(r.process.rss_mib for r in runs) for runs in rounds), "MiB"),
        "ok_frac": (ok / attempted, "ratio"),
        "triples_per_s": (statistics.median(rates), "1/s"),
    }
    notes = f"{len(rounds)} rounds, {len(setup)} set-up probes"
    return {"metrics": metrics, "notes": notes, "check_failures": sorted(probe_failures)}, rounds


def _crosscheck(job: Job, report: Optional[dict]) -> List[str]:
    """Compare one traced job's layer counts with the exact values it must give."""
    mismatches = []
    for name, want in job.crosschecks.items():
        layer, key = name.rsplit(".", 1)
        got = report["layers"].get(layer, {}).get(key, 0) if report else None
        if got != want:
            mismatches.append(f"{job.name}: {name} is {got}, expected {want}")
    return mismatches


def _sum_reports(reports: List[dict]) -> Tuple[dict, dict]:
    layers: Dict[str, Dict[str, float]] = {}
    caches: Dict[str, Dict[str, float]] = {}
    for report in reports:
        for target, source in ((layers, report["layers"]), (caches, report["caches"])):
            for name, values in source.items():
                acc = target.setdefault(name, {})
                for key, value in values.items():
                    acc[key] = acc.get(key, 0) + value
    return layers, caches


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace(workload: Workload, runner: Runner) -> Tuple[dict, List[List[JobRun]]]:
    plain = run_round(workload, runner)
    traced_dir = runner.workdir / "trace"
    traced_dir.mkdir()
    traced = run_round(workload, runner, traced_dir)
    rounds = [plain, traced]
    verify(rounds)
    reports = {}
    for job in workload.jobs:
        path = traced_dir / f"{job.name}.json"
        reports[job.name] = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None
    mismatches = [line for job in workload.jobs for line in _crosscheck(job, reports[job.name])]
    layers, caches = _sum_reports([report for report in reports.values() if report])

    def get(layer: str, key: str) -> float:
        return layers.get(layer, {}).get(key, 0)

    def cache(name: str) -> Tuple[float, float]:
        values = caches.get(name, {})
        hits, misses = values.get("hits", 0), values.get("misses", 0)
        return values.get("size", 0), _ratio(hits, hits + misses)

    winner_size, winner_hits = cache("core.winner")
    cumulative_size, cumulative_hits = cache("lottery.cumulative")
    plain_wall = sum(r.process.wall for r in plain)
    traced_wall = sum(r.process.wall for r in traced)
    count, sec, ratio = "count", "s", "ratio"
    metrics = {
        "core.winner.calls": (get("core.winner", "calls"), count),
        "core.winner.cache_size": (winner_size, count),
        "core.winner.hit_ratio": (winner_hits, ratio),
        "core.winner.self_s": (get("core.winner", "self_s"), sec),
        "domains.members.s": (get("domains.members", "s"), sec),
        "domains.members.count": (get("domains.members", "count"), count),
        "domains.deviations.calls": (get("domains.deviations", "calls"), count),
        "domains.deviations.yielded": (get("domains.deviations", "yielded"), count),
        "domains.deviations.self_s": (get("domains.deviations", "self_s"), sec),
        "domains.deviations.useful_ratio": (
            _ratio(
                get("domains.deviations", "yielded"),
                get("domains.deviations", "calls") * (math.factorial(workload.m) - 1),
            ),
            ratio,
        ),
        "sds.evaluate.calls": (get("sds.evaluate", "calls"), count),
        "sds.evaluate.distinct": (get("sds.evaluate", "distinct"), count),
        "sds.evaluate.self_s": (get("sds.evaluate", "self_s"), sec),
        "lottery.sd_compare.calls": (get("lottery.sd_compare", "calls"), count),
        "lottery.sd_compare.self_s": (get("lottery.sd_compare", "self_s"), sec),
        "lottery.cumulative_cache.size": (cumulative_size, count),
        "lottery.cumulative_cache.hit_ratio": (cumulative_hits, ratio),
        "lottery.mix.calls": (get("lottery.mix", "calls"), count),
        "lottery.mix.self_s": (get("lottery.mix", "self_s"), sec),
        "axioms.check.s": (get("axioms.check", "s"), sec),
        "axioms.check.self_s": (get("axioms.check", "self_s"), sec),
        "analysis.gamma.self_s": (get("analysis.gamma", "self_s"), sec),
        "analysis.extension.self_s": (get("analysis.extension", "self_s"), sec),
        "ratlp.simplex.s": (get("ratlp.simplex", "s"), sec),
        "ratlp.simplex.rows_in": (get("ratlp.simplex", "rows_in"), count),
        "ratlp.fm.s": (get("ratlp.fm", "s"), sec),
        "ratlp.fm.rows_in": (get("ratlp.fm", "rows_in"), count),
        "ratlp.fm.vars": (get("ratlp.fm", "vars"), count),
        "cli.emit.s": (get("cli.emit", "s"), sec),
        "trace.wall_s": (traced_wall, sec),
        "trace.overhead_frac": (_ratio(traced_wall - plain_wall, plain_wall), ratio),
    }
    notes = f"traced round {traced_wall:.3f} s against untraced {plain_wall:.3f} s"
    return {"metrics": metrics, "notes": notes, "check_failures": mismatches}, rounds


# -- provenance and reporting -------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git (which would
    search the parent directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        workload = make_workload(name, seed, workdir)
        runner = Runner(workdir, deadline)
        if traced:
            result, rounds = trace(workload, runner)
        else:
            result, rounds = measure(workload, runner, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    runs = [r for rnd in rounds for r in rnd]
    result.update(
        workload=workload,
        attempted=len(runs),
        failed=sum(not r.outcome.ok for r in runs),
        wrong=[f"{r.job.name}: {r.outcome.reason}" for r in runs if r.outcome.wrong],
        failures=sorted({f"{r.job.name}: {r.outcome.reason}" for r in runs if not r.outcome.ok}),
    )
    result["wrong"] += result["check_failures"]
    return result


def print_result(result: dict, seed: int) -> None:
    workload = result["workload"]
    print(f"workload {workload.name} seed {seed}: {result['notes']}")
    print(f"  sds {workload.sds}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:36s} {value:>14.6g} {unit}")
    print(f"  jobs attempted {result['attempted']}, failed {result['failed']}")
    for line in result["failures"]:
        print(f"  failed  {line}")
    for line in result["wrong"]:
        print(f"  WRONG   {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "condlab" / "cli.py").is_file():
        sys.stderr.write(f"no condlab sources under {SRC}; run from a full checkout\n")
        return 2

    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    results = []
    try:
        for name in names:
            deadline = time.monotonic() + HARD_LIMIT_S
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            print_result(result, args.seed)
            results.append(result)
    except HarnessError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 3

    prefix = len(results) > 1
    metrics = {}
    for result in results:
        for name, (value, unit) in result["metrics"].items():
            key = f"{result['workload'].name}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit}
    summary = {
        "correct": not any(result["wrong"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
