"""Golden CLI reports: refactors must reproduce them byte for byte.

Each case names a command line and the exit code it must return; its
expected stdout is ``tests/golden/<name>.out``. The reports include the
witnesses and the ``profiles_checked`` and ``comparisons`` counters, so any
change to scan order or deviation generation shows up here. A few of them
also run in fresh interpreters under two hash seeds: no report may depend on
the iteration order of a set or dict of hashed values.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import condlab
from condlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CYCLE3 = str(GOLDEN / "cycle3.txt")
CYCLE5 = str(GOLDEN / "cycle5.txt")
SIX_EXTRAS = str(GOLDEN / "six-extras.txt")
SIX_EXTRAS_BC = str(GOLDEN / "six-extras-bc-swapped.txt")
NEAR_WINNER_A = str(GOLDEN / "near-winner-a.txt")
TWO_CYCLES = str(GOLDEN / "two-cycles.txt")
M4_CYCLE_PAIR = str(GOLDEN / "m4-cycle-pair.txt")
TB = "tb-condorcet:a>b>c"
MIX = "mix:1/2*cond+1/2*rd:1/3,1/3,1/3"
# one of the schemes the n=5 benchmark workload draws from
MIX5 = "mix:2/5*cond+3/5*rd:1/10,3/10,1/5,3/10,1/10"

CASES = {
    "check-all-cond-condorcet": (0, ["check", "--n", "3", "--domain", "condorcet", "--sds", "cond", "--axiom", "all"]),
    "check-all-cond-full": (2, ["check", "--n", "3", "--domain", "full", "--sds", "cond", "--axiom", "all"]),
    "check-all-borda-condorcet": (1, ["check", "--n", "3", "--domain", "condorcet", "--sds", "borda", "--axiom", "all"]),
    "check-all-borda-full": (1, ["check", "--n", "3", "--domain", "full", "--sds", "borda", "--axiom", "all"]),
    "check-all-mix-condorcet": (1, ["check", "--n", "3", "--domain", "condorcet", "--sds", MIX, "--axiom", "all"]),
    "check-all-mix-full": (2, ["check", "--n", "3", "--domain", "full", "--sds", MIX, "--axiom", "all"]),
    "check-all-borda-full-text": (
        1, ["check", "--n", "3", "--domain", "full", "--sds", "borda", "--axiom", "all", "--format", "text"],
    ),
    "check-gsp-dict-blend": (
        1, ["check", "--n", "3", "--domain", "condorcet", "--sds", "mix:1/2*cond+1/2*dict:0", "--axiom", "gsp"],
    ),
    "check-gsp-rd-full": (1, ["check", "--n", "3", "--domain", "full", "--sds", "rd:1/3,1/3,1/3", "--axiom", "gsp"]),
    "check-gsp-coalition-zero": (
        2, ["check", "--n", "3", "--domain", "condorcet", "--sds", "cond", "--axiom", "gsp", "--max-coalition", "0"],
    ),
    "gamma-mix": (0, ["gamma", "--n", "3", "--domain", "condorcet", "--sds", MIX]),
    # the two reports of the benchmark's n=5 SP and dictatorial-weight jobs
    "check-sp-n5-mix": (0, ["check", "--n", "5", "--domain", "condorcet", "--sds", MIX5, "--axiom", "sp"]),
    "gamma-n5-mix": (0, ["gamma", "--n", "5", "--domain", "condorcet", "--sds", MIX5]),
    # every member's expected lottery through the weighted-sum kernel
    "decompose-n5-mix": (0, ["decompose", "--n", "5", "--domain", "condorcet", "--sds", MIX5]),
    "gamma-borda": (1, ["gamma", "--n", "3", "--domain", "condorcet", "--sds", "borda"]),
    "extend-cond-cycle": (1, ["extend", "--n", "3", "--base", "condorcet", "--sds", "cond", "--extras", CYCLE3]),
    "extend-cond-six-extras": (
        0, ["extend", "--n", "3", "--base", "condorcet-for:a", "--sds", "cond", "--extras", SIX_EXTRAS],
    ),
    # the same six profiles with b and c swapped: a different elimination order
    "extend-cond-six-extras-bc-swapped": (
        0, ["extend", "--n", "3", "--base", "condorcet-for:a", "--sds", "cond", "--extras", SIX_EXTRAS_BC],
    ),
    # the m=4 majority cycle and its outside neighbour: adjacent extras above m=3
    "extend-cond-m4-cycle-pair": (
        1, ["extend", "--n", "3", "--m", "4", "--base", "condorcet", "--sds", "cond", "--extras", M4_CYCLE_PAIR],
    ),
    "extend-rd-cycle": (
        0, ["extend", "--n", "3", "--base", "condorcet", "--sds", "rd:1/3,1/3,1/3", "--extras", CYCLE3],
    ),
    # the scheme's own lottery at a size where scan order and code order differ
    "extend-rd-cycle5": (
        0, ["extend", "--n", "5", "--base", "condorcet", "--sds", "rd:1/5,1/5,1/5,1/5,1/5", "--extras", CYCLE5],
    ),
    "extend-mix-cycle-non-imposing": (
        1,
        ["extend", "--n", "3", "--base", "condorcet", "--sds", MIX, "--extras", CYCLE3, "--require-non-imposition"],
    ),
    # the conflict names a pinned lottery: the pinning loop ran and failed
    "extend-cond-for-near-winner-non-imposing": (
        1,
        ["extend", "--n", "3", "--base", "condorcet-for:a", "--sds", "cond", "--extras", NEAR_WINNER_A,
         "--require-non-imposition"],
    ),
    "extend-cond-for-two-cycles-non-imposing": (
        0,
        ["extend", "--n", "3", "--base", "condorcet-for:a", "--sds", "cond", "--extras", TWO_CYCLES,
         "--require-non-imposition"],
    ),
    "check-all-tb-mix": (
        1, ["check", "--n", "4", "--domain", TB, "--sds", "mix:1/2*tb-cond:a>b>c+1/4*dict:0+1/4*dict:3",
            "--axiom", "all"],
    ),
    "decompose-tb-mix": (
        0, ["decompose", "--n", "4", "--domain", TB, "--sds", "mix:1/2*tb-cond:a>b>c+1/4*dict:0+1/4*dict:3"],
    ),
    # the base members and the extras merged by code
    "enumerate-cond-for-two-cycles": (
        0, ["enumerate", "--n", "3", "--domain", f"condorcet-for:a+file:{TWO_CYCLES}"],
    ),
    # six profiles that hand the tie-broken winner from a to b
    "adpath-tb-fixing": (
        0,
        ["adpath", "--n", "4", "--domain", TB, "--fix", "c", "--from", str(GOLDEN / "tb-start.txt"),
         "--to", str(GOLDEN / "tb-goal.txt")],
    ),
    # the same path as text: lists of dicts and multi-line strings in a list
    "adpath-tb-fixing-text": (
        0,
        ["adpath", "--n", "4", "--domain", TB, "--fix", "c", "--from", str(GOLDEN / "tb-start.txt"),
         "--to", str(GOLDEN / "tb-goal.txt"), "--format", "text"],
    ),
    # the batteries: the third carries the standing criterion 7 failure
    "theorems-1": (0, ["theorems", "--which", "1"]),
    "theorems-2": (0, ["theorems", "--which", "2"]),
    "theorems-3": (1, ["theorems", "--which", "3"]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys):
    code, argv = CASES[name]
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


# one report per command family: the axiom table, the FM solve, the LP, merged
# enumeration, and the battery whose criterion 8 reports an FM conflict
HASH_SEED_CASES = [
    "check-all-borda-full",
    "extend-cond-six-extras",
    # two pins, and a pinned conflict: the pinning loop's order and tags
    "extend-cond-for-two-cycles-non-imposing",
    "extend-cond-for-near-winner-non-imposing",
    "gamma-borda",
    "enumerate-cond-for-two-cycles",
    "theorems-3",
]


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("name", HASH_SEED_CASES)
def test_report_does_not_depend_on_the_hash_seed(name, seed):
    code, argv = CASES[name]
    src = str(Path(condlab.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "condlab.cli", *argv], env=env, capture_output=True, timeout=300
    )
    assert done.returncode == code, done.stderr.decode()
    assert done.stdout == (GOLDEN / f"{name}.out").read_bytes()
