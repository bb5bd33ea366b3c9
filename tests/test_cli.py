import json
import os
import time

import pytest

from condlab.cli import main
from condlab.core import all_relations
from condlab.domains import CondorcetDomain
from condlab.sds import SDS, Mixture


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def test_enumerate_counts(capsys):
    code, data = run_json(
        capsys, ["enumerate", "--n", "3", "--domain", "full", "--count-only"]
    )
    assert code == 0
    assert data == {"count": 216, "domain": "full", "m": 3, "n": 3}
    code, data = run_json(
        capsys, ["enumerate", "--n", "3", "--domain", "condorcet", "--count-only"]
    )
    assert code == 0 and data["count"] == 204


def test_enumerate_lists_profiles(capsys):
    code, data = run_json(capsys, ["enumerate", "--n", "3", "--domain", "condorcet"])
    assert code == 0
    assert len(data["profiles"]) == 204
    assert data["profiles"][0] == "a>b>c\na>b>c\na>b>c"


def test_enumerate_text_format(capsys):
    code, out = run(
        capsys,
        ["enumerate", "--n", "3", "--domain", "full", "--count-only", "--format", "text"],
    )
    assert code == 0
    assert out.splitlines() == ["count: 216", "domain: full", "m: 3", "n: 3"]


def test_check_strategyproof_positive(capsys):
    code, data = run_json(
        capsys,
        ["check", "--n", "3", "--domain", "condorcet", "--sds", "cond", "--axiom", "sp"],
    )
    assert code == 0
    assert data["axiom"] == "strategyproof"
    assert data["holds"] is True
    assert data["profiles_checked"] == 204


def test_check_negative_then_replay(capsys, tmp_path):
    argv = ["check", "--n", "3", "--domain", "full", "--sds", "plurality", "--axiom", "sp"]
    code, data = run_json(capsys, argv)
    assert code == 1 and data["holds"] is False and data["witness"]
    witness_file = tmp_path / "verdict.json"
    witness_file.write_text(json.dumps(data))
    replay = [
        "check", "--n", "3", "--domain", "full", "--sds", "plurality",
        "--replay", str(witness_file),
    ]
    code, data = run_json(capsys, replay)
    assert code == 0 and data == {"axiom": "strategyproof", "replayed": True}
    foreign = [
        "check", "--n", "3", "--domain", "full", "--sds", "dict:0",
        "--replay", str(witness_file),
    ]
    code, data = run_json(capsys, foreign)
    assert code == 1 and data["replayed"] is False


def test_replay_under_a_cap_below_m_factorial(capsys, tmp_path):
    # a replay decides membership from the profiles' codes, not the 3! relation table
    argv = ["check", "--n", "3", "--domain", "condorcet", "--sds", "borda", "--axiom", "sp"]
    code, data = run_json(capsys, argv)
    assert code == 1
    witness_file = tmp_path / "verdict.json"
    witness_file.write_text(json.dumps(data))
    code, data = run_json(capsys, argv + ["--replay", str(witness_file), "--max-profiles", "5"])
    assert code == 0 and data == {"axiom": "strategyproof", "replayed": True}


def test_check_all_axioms(capsys):
    code, data = run_json(
        capsys,
        ["check", "--n", "3", "--domain", "condorcet", "--sds", "dict:0", "--axiom", "all"],
    )
    assert code == 0
    assert sorted(data["verdicts"]) == [
        "ex-post-efficient",
        "group-strategyproof",
        "localized",
        "non-imposition",
        "non-perverse",
        "strategyproof",
    ]
    assert all(v["holds"] for v in data["verdicts"].values())


def test_check_all_evaluates_each_member_once(capsys, monkeypatch):
    evaluated = []
    evaluate = SDS.evaluate

    def counting(self, profile):
        if isinstance(self, Mixture):  # not the components it evaluates
            evaluated.append(profile)
        return evaluate(self, profile)

    monkeypatch.setattr(SDS, "evaluate", counting)
    mix = "mix:1/2*cond+1/2*rd:1/3,1/3,1/3"
    run(capsys, ["check", "--n", "3", "--domain", "condorcet", "--sds", mix, "--axiom", "all"])
    assert len(evaluated) == len(set(evaluated)) == 204


def test_check_decides_membership_once_per_profile(capsys, monkeypatch):
    decided = []
    contains = CondorcetDomain._contains

    def counting(self, profile):
        decided.append(profile)
        return contains(self, profile)

    monkeypatch.setattr(CondorcetDomain, "_contains", counting)
    argv = ["check", "--n", "3", "--domain", "condorcet", "--sds", "cond", "--axiom", "sp"]
    code, _ = run(capsys, argv)
    # the scanned domain is the scheme's validity domain: one table
    assert code == 0 and len(decided) == 216


MISSING = object()


@pytest.mark.parametrize(
    "axiom, field, value",
    [
        ("sp", "voter", 7),
        ("sp", "voter", -1),
        ("sp", "voter", MISSING),
        ("sp", "deviation", MISSING),
        ("gsp", "coalition", [9]),
        ("gsp", "coalition", []),
        ("gsp", "coalition", [0, 0]),
        ("localized", "voter", 5),
        ("localized", "lowered", "z"),
        ("sp", "profile", 5),
        ("sp", "deviation", ["x"]),
        ("gsp", "coalition", 5),
    ],
    ids=[
        "sp-voter-7", "sp-voter-minus-1", "sp-no-voter", "sp-no-deviation",
        "gsp-coalition-9", "gsp-empty-coalition", "gsp-repeated-voter",
        "localized-voter-5", "localized-lowered-z", "sp-profile-5", "sp-deviation-list",
        "gsp-coalition-5",
    ],
)
def test_replay_rejects_malformed_witness(capsys, tmp_path, axiom, field, value):
    argv = ["check", "--n", "3", "--domain", "full", "--sds", "plurality"]
    code, data = run_json(capsys, argv + ["--axiom", axiom])
    assert code == 1
    if value is MISSING:
        del data["witness"][field]
    else:
        data["witness"][field] = value
    witness_file = tmp_path / "verdict.json"
    witness_file.write_text(json.dumps(data))
    code, data = run_json(capsys, argv + ["--replay", str(witness_file)])
    assert code == 2 and "witness" in data["error"]


def test_replay_rejects_sp_witness_moving_another_voter(capsys, tmp_path):
    argv = ["check", "--n", "3", "--domain", "full", "--sds", "plurality"]
    code, data = run_json(capsys, argv + ["--axiom", "sp"])
    assert code == 1 and data["witness"]["voter"] == 0
    # voter 2 changes too, so this is no unilateral deviation by voter 0
    data["witness"]["deviation"] = "b>a>c\nb>a>c\nb>c>a"
    witness_file = tmp_path / "verdict.json"
    witness_file.write_text(json.dumps(data))
    code, data = run_json(capsys, argv + ["--replay", str(witness_file)])
    assert code == 1 and data["replayed"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--n", "3", "--domain", "condorcet", "--sds", "rd:1/0,1/3,1/3"],
        ["check", "--n", "3", "--domain", "condorcet", "--sds", "mix:1/0*cond+1/2*dict:0"],
        ["theorems", "--which", "1", "--grid-step", "1/0"],
    ],
    ids=["rd-weight", "mix-weight", "grid-step"],
)
def test_zero_denominator_is_a_usage_error(capsys, argv):
    code, data = run_json(capsys, argv)
    assert code == 2 and "'1/0'" in data["error"]


def test_zero_denominator_in_table_is_a_usage_error(capsys, tmp_path):
    table = tmp_path / "table.txt"
    table.write_text('a>b>c\nb>a>c\na>c>b\n{"a": "1/0"}\n')
    argv = ["check", "--n", "3", "--domain", "condorcet", "--sds", f"table:{table}"]
    code, data = run_json(capsys, argv)
    assert code == 2 and "'1/0'" in data["error"]


def test_table_naming_a_profile_twice_is_a_usage_error(capsys, tmp_path):
    table = tmp_path / "table.txt"
    table.write_text('a>b>c\nb>c>a\nc>a>b\n{"a": "1"}\na>b>c\nb>c>a\nc>a>b\n{"b": "1"}\n')
    argv = ["check", "--n", "3", "--domain", "full", "--sds", f"table:{table}"]
    code, data = run_json(capsys, argv)
    assert code == 2 and "a>b>c\nb>c>a\nc>a>b" in data["error"]


@pytest.mark.parametrize(
    "entry", ['{"a": null, "b": "1"}', '{"a": 0.1, "b": 0.9}', '{"a": true}'], ids=["null", "float", "bool"]
)
def test_table_probabilities_must_be_strings(capsys, tmp_path, entry):
    table = tmp_path / "table.txt"
    table.write_text(f"a>b>c\nb>a>c\na>c>b\n{entry}\n")
    argv = ["check", "--n", "3", "--domain", "condorcet", "--sds", f"table:{table}"]
    code, data = run_json(capsys, argv)
    assert code == 2 and "'a'" in data["error"] and "string" in data["error"]


@pytest.mark.parametrize(
    "verdict, blamed",
    [
        ({"axiom": "ex-post-efficient", "witness": {
            "profile": "a>b>c\nb>a>c\nc>a>b", "dominator": "a", "dominated": "q",
        }}, "dominated"),
        ({"axiom": "non-imposition", "witness": {"alternative": 5}}, "alternative"),
        ({"axiom": "non-imposition", "witness": {"alternative": "z"}}, "alternative"),
        ([1, 2], "object"),
    ],
    ids=["expost-dominated-q", "non-imposition-5", "non-imposition-z", "verdict-list"],
)
def test_replay_rejects_ill_typed_witness(capsys, tmp_path, verdict, blamed):
    witness_file = tmp_path / "verdict.json"
    witness_file.write_text(json.dumps(verdict))
    argv = ["check", "--n", "3", "--domain", "full", "--sds", "plurality", "--replay", str(witness_file)]
    code, data = run_json(capsys, argv)
    assert code == 2 and blamed in data["error"]


def test_check_gsp_finds_group_violation(capsys):
    code, data = run_json(
        capsys,
        [
            "check", "--n", "3", "--domain", "condorcet",
            "--sds", "mix:1/2*cond+1/2*dict:0", "--axiom", "gsp",
            "--max-coalition", "2",
        ],
    )
    assert code == 1
    assert data["holds"] is False
    assert len(data["witness"]["coalition"]) == 2


def test_decompose(capsys):
    code, data = run_json(
        capsys,
        [
            "decompose", "--n", "3", "--domain", "condorcet",
            "--sds", "mix:1/2*cond+1/2*rd:1/3,1/3,1/3",
        ],
    )
    assert code == 0
    assert data["coefficients"] == {"gamma_C": "1/2", "gamma": ["1/6", "1/6", "1/6"]}
    assert data["nonnegative"] is True
    assert data["verification"]["holds"] is True


def test_decompose_anchor_by_name(capsys):
    code, data = run_json(
        capsys,
        ["decompose", "--n", "3", "--domain", "condorcet", "--sds", "cond", "--anchor", "b"],
    )
    assert code == 0 and data["anchor"] == 1
    assert data["coefficients"]["gamma_C"] == "1"


def test_decompose_refuses_two_alternatives(capsys):
    code, data = run_json(
        capsys, ["decompose", "--n", "3", "--m", "2", "--domain", "condorcet", "--sds", "cond"]
    )
    assert code == 2 and data == {"error": "probes need at least three alternatives"}


def test_cap_exceeded_decompose_builds_no_relation_table(capsys, monkeypatch):
    # m=9: no other test builds its 362,880 relations, so a build shows as a miss
    monkeypatch.delenv("CONDLAB_MAX_PROFILES", raising=False)
    misses = all_relations.cache_info().misses
    code, data = run_json(
        capsys, ["decompose", "--n", "3", "--m", "9", "--domain", "condorcet", "--sds", "cond"]
    )
    assert code == 2 and data["kind"] == "cap-exceeded"
    assert all_relations.cache_info().misses == misses


def test_gamma_values(capsys):
    code, data = run_json(
        capsys, ["gamma", "--n", "3", "--domain", "condorcet", "--sds", "cond"]
    )
    assert code == 0 and data == {"max_dictatorial_weight": "0"}
    code, data = run_json(
        capsys,
        ["gamma", "--n", "3", "--domain", "condorcet", "--sds", "mix:3/4*cond+1/4*dict:1"],
    )
    assert code == 0 and data == {"max_dictatorial_weight": "1/4"}


def test_gamma_rejects_manipulable_scheme(capsys):
    code, data = run_json(
        capsys, ["gamma", "--n", "3", "--domain", "full", "--sds", "plurality"]
    )
    assert code == 1
    assert data["strategyproof"] is False and data["error"]


def test_gamma_witness_replays_as_the_sp_check_witness(capsys, tmp_path):
    scheme = ["--n", "3", "--domain", "condorcet", "--sds", "borda"]
    code, gamma = run_json(capsys, ["gamma", *scheme])
    assert code == 1
    assert gamma["error"] == "scheme is manipulable at Profile(a>b>c; a>b>c; b>a>c) by voter 2"
    _, check = run_json(capsys, ["check", *scheme, "--axiom", "sp"])
    assert gamma["witness"] == check["witness"]
    report = tmp_path / "gamma.json"
    report.write_text(json.dumps(gamma), encoding="utf-8")
    code, data = run_json(capsys, ["check", *scheme, "--replay", str(report)])
    assert code == 0 and data == {"axiom": "strategyproof", "replayed": True}


def test_adpath_command(capsys, tmp_path):
    src = tmp_path / "from.prof"
    dst = tmp_path / "to.prof"
    src.write_text("a>b>c\na>b>c\nb>a>c\n")
    dst.write_text("b>a>c\nb>a>c\na>b>c\n")
    argv = [
        "adpath", "--n", "3", "--domain", "condorcet",
        "--from", str(src), "--to", str(dst),
    ]
    code, data = run_json(capsys, argv)
    assert code == 0
    assert data["validation"]["holds"] is True
    assert data["path"]["steps"][0] == "a>b>c\na>b>c\nb>a>c"
    assert data["length"] == len(data["path"]["steps"])
    code, data = run_json(capsys, argv + ["--fix", "c"])
    assert code == 0 and data["validation"]["holds"] is True
    assert all(s["x"] != "c" and s["y"] != "c" for s in data["path"]["swaps"])


def test_adpath_parity_error(capsys, tmp_path):
    src = tmp_path / "p.prof"
    src.write_text("a>b>c\na>b>c\na>b>c\na>b>c\n")
    code, data = run_json(
        capsys,
        [
            "adpath", "--n", "4", "--domain", "condorcet",
            "--from", str(src), "--to", str(src),
        ],
    )
    assert code == 2 and data["kind"] == "parity-mismatch"


def test_adpath_rejects_outside_endpoint(capsys, tmp_path):
    src = tmp_path / "cycle.prof"
    src.write_text("a>b>c\nb>c>a\nc>a>b\n")
    code, data = run_json(
        capsys,
        [
            "adpath", "--n", "3", "--domain", "condorcet",
            "--from", str(src), "--to", str(src),
        ],
    )
    assert code == 2 and "outside the domain" in data["error"]


def test_extend_command(capsys, tmp_path):
    extras = tmp_path / "extras.prof"
    extras.write_text("a>b>c\nb>c>a\nc>a>b\n")
    base_argv = ["extend", "--n", "3", "--base", "condorcet", "--extras", str(extras)]
    code, data = run_json(capsys, base_argv + ["--sds", "rd:1/3,1/3,1/3"])
    assert code == 0 and data["feasible"] is True
    code, data = run_json(capsys, base_argv + ["--sds", "cond"])
    assert code == 1 and data["feasible"] is False and data["conflict"]
    code, data = run_json(
        capsys, base_argv + ["--sds", "cond", "--require-non-imposition"]
    )
    assert code == 1 and data["feasible"] is False


def test_extend_refuses_a_manipulable_base(capsys, tmp_path):
    extras = tmp_path / "extras.prof"
    extras.write_text("a>b>c\nb>c>a\nc>a>b\n")
    argv = ["extend", "--n", "3", "--base", "condorcet", "--sds", "borda", "--extras", str(extras)]
    code, data = run_json(capsys, argv)
    assert code == 1 and data["feasible"] is False and data["witness"] is None
    assert data["conflict"] == [
        "base scheme is manipulable: voter 2 gains by leaving 'a>b>c\\na>b>c\\nb>a>c' (cut at b)"
    ]


def test_theorems_battery_one(capsys):
    code, data = run_json(capsys, ["theorems", "--which", "1"])
    assert code == 0 and data["all_ok"] is True
    assert [r["criterion"] for r in data["results"]] == [1, 2, 3, 5]


def test_theorems_fine_grid_is_refused_before_it_is_built(capsys, monkeypatch):
    monkeypatch.delenv("CONDLAB_MAX_PROFILES", raising=False)
    # building the grid would take minutes; the bound is loose for slow hosts
    started = time.perf_counter()
    code, data = run_json(capsys, ["theorems", "--which", "1", "--grid-step", "1/1000"])
    assert time.perf_counter() - started < 30
    assert code == 2 and data["kind"] == "cap-exceeded"
    assert "167668501" in data["error"]


def test_theorems_refuses_two_alternatives(capsys):
    code, data = run_json(capsys, ["theorems", "--which", "1", "--m", "2"])
    assert code == 2 and data == {"error": "probes need at least three alternatives"}


def test_theorems_rejects_wrong_parity(capsys):
    code, data = run_json(capsys, ["theorems", "--which", "1", "--n", "4"])
    assert code == 2 and "odd" in data["error"]


def test_usage_errors(capsys):
    code, data = run_json(
        capsys, ["check", "--n", "3", "--domain", "condorcet", "--sds", "nosuch"]
    )
    assert code == 2 and "error" in data
    code, data = run_json(
        capsys, ["enumerate", "--n", "3", "--domain", "nosuch", "--count-only"]
    )
    assert code == 2 and "error" in data
    with pytest.raises(SystemExit):
        main([])


def test_enumeration_cap(capsys, monkeypatch):
    monkeypatch.delenv("CONDLAB_MAX_PROFILES", raising=False)
    code, data = run_json(
        capsys,
        [
            "enumerate", "--n", "5", "--domain", "condorcet",
            "--count-only", "--max-profiles", "100",
        ],
    )
    assert code == 2 and data["kind"] == "cap-exceeded"


def test_cap_flag_overrides_environment(capsys, monkeypatch):
    monkeypatch.setenv("CONDLAB_MAX_PROFILES", "100")
    argv = ["enumerate", "--n", "3", "--domain", "condorcet", "--count-only"]
    code, data = run_json(capsys, argv)
    assert code == 2 and data["kind"] == "cap-exceeded"
    code, data = run_json(capsys, argv[:-1] + ["--count-only", "--max-profiles", "300"])
    assert code == 0 and data["count"] == 204


def test_malformed_cap_variable_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CONDLAB_MAX_PROFILES", "abc")
    code, data = run_json(capsys, ["enumerate", "--n", "3", "--domain", "condorcet", "--count-only"])
    assert code == 2 and "CONDLAB_MAX_PROFILES" in data["error"]


def test_cap_flag_applies_to_one_invocation(capsys, monkeypatch):
    monkeypatch.delenv("CONDLAB_MAX_PROFILES", raising=False)
    argv = ["enumerate", "--n", "3", "--domain", "condorcet", "--count-only"]
    code, data = run_json(capsys, argv + ["--max-profiles", "100"])
    assert code == 2 and data["kind"] == "cap-exceeded"
    assert "CONDLAB_MAX_PROFILES" not in os.environ
    assert len(CondorcetDomain(3, 3).members()) == 204


def test_reports_are_byte_identical(capsys):
    argv = [
        "decompose", "--n", "3", "--domain", "condorcet",
        "--sds", "mix:1/4*cond+3/4*rd:1/2,1/4,1/4",
    ]
    code_one, out_one = run(capsys, argv)
    code_two, out_two = run(capsys, argv)
    assert code_one == code_two == 0
    assert out_one == out_two
