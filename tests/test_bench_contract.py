"""The layer counts the benchmark's tracer checks, on a small domain.

``perfbench/tracer.py`` wraps ``Domain.unilateral_deviations`` at the class
and rebinds module-level ``sd_compare`` and ``condorcet_winner`` names, then
compares the counts it sees with exact values. A scan that walks neighbours
another way, aliases ``sd_compare`` or drops the functools caches would
make a traced benchmark run report wrong counts; this test catches that
without running the benchmark. The tracer rebinds names only in the modules
loaded when it installs, so a CLI handler that imports its layer late must
still reach the rebound function.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from condlab.core import PreferenceRelation, all_relations, full_profile_count
from condlab.domains import CondorcetDomain, CondorcetForDomain, FullDomain, TieBreakingCondorcetDomain

ROOT = Path(__file__).resolve().parents[1]
SCHEME = "mix:1/2*cond+1/2*rd:1/3,1/3,1/3"


def brute_force_triples(dom):
    """(member, voter, in-domain deviation) triples, counted without the table."""
    return sum(
        dom.contains(profile.replace(voter, rel))
        for profile in dom.members()
        for voter in range(dom.n)
        for rel in all_relations(dom.m)
        if rel != profile[voter]
    )


def traced(tmp_path, *args):
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(out), "--", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout), json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", [("check", "--axiom", "sp"), ("gamma",)])
def test_traced_counts_match_the_scan(tmp_path, command):
    dom = CondorcetDomain(3, 3)
    result, trace = traced(
        tmp_path, command[0], "--n", "3", "--domain", "condorcet", "--sds", SCHEME, *command[1:]
    )
    layers = trace["layers"]
    compared = layers.get("lottery.sd_compare", {}).get("calls", 0)
    assert compared == result.get("comparisons", 0)
    if command[0] == "gamma":
        assert compared == 0
    assert layers["domains.deviations"]["yielded"] == brute_force_triples(dom)
    for cache in ("core.winner", "lottery.cumulative"):
        assert set(trace["caches"][cache]) == {"hits", "misses", "size"}


def test_traced_tie_breaking_scan_counts_its_winner_calls(tmp_path):
    # the tie-breaking domain answers through the traced condorcet_winner:
    # once per enumerated profile, and once more per member for the rule's lottery
    dom = TieBreakingCondorcetDomain(PreferenceRelation((0, 1, 2)), 4)
    members = len(dom.members())
    assert (full_profile_count(4, 3), members) == (1_296, 1_206)
    result, trace = traced(
        tmp_path, "check", "--n", "4", "--domain", "tb-condorcet:a>b>c", "--sds", "tb-cond:a>b>c",
        "--axiom", "sp",
    )
    assert result["holds"] is True and result["profiles_checked"] == members
    assert trace["layers"]["core.winner"]["calls"] == 1_296 + 1_206 == 2_502


def test_traced_extend_reaches_one_solve(tmp_path):
    # job (i) of the extend-fm workload: the first six canonical profiles
    # outside condorcet-for:a at n=3
    base = CondorcetForDomain(0, 3, 3)
    extras = [p for p in FullDomain(3, 3).members() if not base.contains(p)][:6]
    path = tmp_path / "extras.prof"
    path.write_text("\n\n".join(p.to_text() for p in extras) + "\n")
    result, trace = traced(
        tmp_path, "extend", "--n", "3", "--base", "condorcet-for:a", "--sds", "cond",
        "--extras", str(path),
    )
    assert result["feasible"] is True
    assert trace["layers"]["ratlp.fm"]["calls"] == 1
    assert trace["layers"]["analysis.extension"]["calls"] == 1
