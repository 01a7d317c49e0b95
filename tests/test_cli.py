import itertools
import json
import os
import random
import re
import resource
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from bentforge import cli
from bentforge import fixtures as fx
from bentforge.boolfun import BooleanFunction, dual, from_tt_hex, to_tt_hex, zero_function
from bentforge.cli import main
from bentforge.construct import mm_bent
from bentforge.msub import is_in_mm_sharp
from bentforge.vectorial import identity_map, to_vf_text
from conftest import HYPERPLANE_VANISHES, balanced_h3, ea_disguise, random_mm


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


README = (Path(__file__).parents[1] / "README.md").read_text()


def readme_commands(section: str) -> list[str]:
    """The `bentforge ...` lines of the code blocks of one README section."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```\n(.*?)^```", body, flags=re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    return [line for line in lines if line.startswith("bentforge ")]


@pytest.mark.parametrize(
    "line",
    readme_commands("CLI") + readme_commands("Reproducing the published examples"),
    ids=lambda line: " ".join(line.split()[1:3]),
)
def test_readme_commands_parse(line):
    # parsing reads no file: --tt, --pi and the like stay strings
    argv = shlex.split(line, comments=True)[1:]
    cli.build_parser().parse_args(argv)


def test_readme_cli_block_shows_every_command_and_counts_the_claims():
    import argparse

    from bentforge.verify import CLAIMS

    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {line.split()[1] for line in readme_commands("CLI")} == set(commands.choices)
    assert re.search(r"\((\d+)\s+today\)", README).group(1) == str(len(CLAIMS))


def leaf_commands(parser) -> set[tuple[str, ...]]:
    """Every command path of the parser; a positional with choices, like
    certify's theorem, adds one path per choice."""
    import argparse

    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return {
                (name, *rest) for name, p in action.choices.items() for rest in leaf_commands(p)
            }
        if not action.option_strings and action.choices:
            return {(choice,) for choice in action.choices}
    return {()}


def contract_rows() -> dict[tuple[str, ...], list[list[str]]]:
    """A few invocations of every leaf command, on the bundled fixtures."""
    tt = to_tt_hex(fx.published_bent8("delta0_mix"))
    cube = to_vf_text(fx.apn_perm_m3())

    def pieces(name):
        make, _ = fx.QUADRUPLES[name]
        return [x for i, f in enumerate(make().functions, 1) for x in (f"--f{i}", to_tt_hex(f))]

    return {
        ("analyze",): [["--tt", tt], ["--sharp", "--tt", tt], ["--anf", "x1*x2 + x3*x4"]],
        ("msub",): [["--tt", tt, "--dim", "2"]],
        ("psclass",): [["--tt", tt]],
        ("construct", "mm"): [["--pi", cube, "--h", "y1*y2"]],
        ("construct", "concat"): [pieces("delta0_mix")],
        ("construct", "extend-perm"): [["--sigma1", "y1\ny2\ny3", "--sigma2", cube]],
        ("construct", "thm55"): [["--pi", PI3, "--sigma", cube, "--h1", "0", "--h2", "0"]],
        ("certify", "thm53"): [pieces("delta0_mix")],
        ("certify", "thm57"): [pieces("apn_family")],
        **{("perm-check", prop): [["--vf", cube]] for prop in ("apn", "p1", "p2", "linstruct")},
    }


def test_every_command_but_verify_paper_prints_one_sorted_json_object(capsys):
    rows = contract_rows()
    assert set(rows) == leaf_commands(cli.build_parser()) - {("verify-paper",)}
    for command, invocations in rows.items():
        for argv in invocations:
            code, out, err = run_cli(capsys, *command, *argv)
            assert (code, err) == (0, ""), command
            assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n", command


def test_analyze_quadratic(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--anf", "x1*x2 + x3*x4")
    assert code == 0
    report = json.loads(out)
    assert report["is_bent"] is True
    assert report["degree"] == 2
    assert report["mm_sharp"] is not None
    # an MM# witness implies a nonzero top-dimension profile count
    assert report["msubspace_profile"][str(report["n"] // 2)] > 0
    assert "ps_sharp" not in report  # no --sharp flag


def test_analyze_reproducible_apart_from_timings(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "--anf", "x1*x2+x3*x4")
    _, out2, _ = run_cli(capsys, "analyze", "--anf", "x1*x2+x3*x4")
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("timings")
    r2.pop("timings")
    assert r1 == r2


def test_analyze_times_each_stage(capsys):
    for flags, extra in (((), set()), (("--sharp",), {"ps_sharp"})):
        _, out, _ = run_cli(capsys, "analyze", "--anf", "x1*x2+x3*x4", *flags)
        assert set(json.loads(out)["timings"]) == {"bent", "degree", "profile"} | extra


def test_analyze_sharp_rejects_non_bent(capsys):
    code, out, err = run_cli(capsys, "analyze", "--anf", "x1*x2*x3", "--sharp")
    assert code != 0


@pytest.mark.parametrize(
    "n, anf, message",
    [
        (10, None, "PS and PS# tests supported for n <= 8"),
        (4, "x1*x2*x3 + x4", "PS# membership is defined for bent functions"),
    ],
    ids=["n10-bent", "even-n-not-bent"],
)
def test_analyze_sharp_rejects_input_before_the_profile(capsys, monkeypatch, n, anf, message):
    from bentforge import cli
    from bentforge.boolfun import zero_function
    from bentforge.construct import mm_bent
    from bentforge.vectorial import identity_map

    def forbidden(f):
        raise AssertionError("M-subspace profile computed for a rejected input")

    monkeypatch.setattr(cli, "msubspace_profile", forbidden)
    if anf is None:
        source = ("--tt", to_tt_hex(mm_bent(identity_map(n // 2), zero_function(n // 2))))
    else:
        source = ("--anf", anf, "--n", str(n))
    code, _, err = run_cli(capsys, "analyze", "--sharp", *source)
    assert code == 2
    assert message in err


def test_truth_table_literal_longer_than_a_file_name():
    # at n = 10 the literal has 264 characters, more than a file name may
    # have; the ANF literal has over 5,000, more than a path may have
    from bentforge.boolfun import zero_function
    from bentforge.cli import load_boolean_source
    from bentforge.construct import mm_bent
    from bentforge.vectorial import identity_map

    f = mm_bent(identity_map(5), zero_function(5))
    assert load_boolean_source(to_tt_hex(f)) == f
    # x1*x3 cancels in pairs
    literal = " + ".join(["x1*x2", "x3*x4"] + ["x1*x3"] * 624)
    assert len(literal) > 5000
    assert load_boolean_source(literal) == load_boolean_source("x1*x2 + x3*x4")


ANALYZE = ["analyze", "--anf", "x1*x2"]
PSCLASS = ["psclass", "--anf", "x1*x2"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        # an input flag, so that argparse gets as far as the unknown flag
        pytest.param(ANALYZE, "--jobs", id="analyze"),
        pytest.param(PSCLASS, "--jobs", id="psclass"),
        # analyze --sharp runs the PS# sweep
        pytest.param(PSCLASS, "--sharp", id="psclass-sharp"),
        pytest.param(["verify-paper"], "--jobs", id="verify-paper"),
        # removed with the PS# sweep's checkpoints
        pytest.param(ANALYZE, "--resume", id="analyze-resume"),
        pytest.param(PSCLASS, "--resume", id="psclass-resume"),
        # verify-paper always runs the PS# sweeps
        pytest.param(["verify-paper"], "--fast", id="verify-paper-fast"),
        # msub always prints JSON
        pytest.param(["msub", "--anf", "x1*x2", "--dim", "1"], "--json", id="msub-json"),
    ],
)
def test_jobs_flag_is_rejected(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "x"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_profile_is_not_a_command(capsys):
    # the M-subspace profile is a field of the analyze report
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--anf", "x1*x2"])
    assert exc.value.code == 2
    assert "invalid choice: 'profile'" in capsys.readouterr().err


def test_anf_flag_accepts_tt_literal(capsys):
    tt = to_tt_hex(fx.published_bent8("transposed"))
    _, by_anf, _ = run_cli(capsys, "analyze", "--anf", tt)
    _, by_tt, _ = run_cli(capsys, "analyze", "--tt", tt)
    profiles = [json.loads(out)["msubspace_profile"] for out in (by_anf, by_tt)]
    assert profiles == [{"2": 91, "3": 0, "4": 0}] * 2


@pytest.mark.parametrize("flag", ["--tt", "--anf"])
def test_n_must_match_a_truth_table_literal(capsys, flag):
    tt = to_tt_hex(fx.published_bent8("transposed"))
    code, out, err = run_cli(capsys, "analyze", flag, tt, "--n", "6")
    assert (code, out) == (2, "")
    assert "n = 8" in err and "n = 6" in err
    code, out, _ = run_cli(capsys, "analyze", flag, tt, "--n", "8")
    assert code == 0 and json.loads(out)["msubspace_profile"]["2"] == 91


def test_analyze_parse_error_reports_position(capsys):
    code, _, err = run_cli(capsys, "analyze", "--anf", "x1 + bogus")
    assert code == 2
    assert "position" in err


def test_analyze_accepts_tt_literal(capsys):
    f = fx.published_bent8("delta0_mix")
    code, out, _ = run_cli(capsys, "analyze", "--tt", to_tt_hex(f))
    report = json.loads(out)
    assert report["is_bent"] is True
    assert report["mm_sharp"] is None
    assert report["msubspace_profile"]["4"] == 0


def test_msub_lists_bases(capsys):
    code, out, _ = run_cli(capsys, "msub", "--anf", "x1*x2+x3*x4+x5*x6", "--dim", "3")
    assert code == 0
    assert len(json.loads(out)["subspaces"]) == 135


def test_msub_json(capsys):
    code, out, _ = run_cli(capsys, "msub", "--anf", "x1*x2+x3*x4", "--dim", "2")
    data = json.loads(out)
    assert len(data["subspaces"]) == 15


def test_closed_stdout_exits_1_with_nothing_on_stderr():
    # about 760 KB of JSON, more than a pipe buffer holds, so a write
    # meets the closed pipe
    tt = to_tt_hex(mm_bent(identity_map(4), zero_function(4)))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "bentforge.cli", "msub", "--tt", tt, "--dim", "3"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, "")


def test_profile_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--anf", "x1*x2+x3*x4+x5*x6")
    data = json.loads(out)["msubspace_profile"]
    assert data["3"] == 135


def test_psclass_json(capsys, tmp_path):
    from bentforge.psclass import ps_ap
    from bentforge.boolfun import BooleanFunction

    f = ps_ap(3, BooleanFunction(3, [0, 1, 1, 0, 1, 0, 1, 0]))
    path = tmp_path / "f.tt"
    path.write_text(to_tt_hex(f))
    code, out, _ = run_cli(capsys, "psclass", "--tt", str(path))
    data = json.loads(out)
    assert data["subclass"] == "PS_minus"
    assert len(data["subspaces"]) == 4


def test_psclass_prints_the_ps_plus_witness_on_two_variables(capsys):
    # 1 + x1 x2 is 1 on the union of the lines {0, e1} and {0, e2}
    code, out, _ = run_cli(capsys, "psclass", "--anf", "x1*x2 + 1")
    assert code == 0
    assert json.loads(out) == {"subclass": "PS_plus", "subspaces": [["01"], ["10"]]}


def test_analyze_sharp_prints_the_sweep_witness(capsys):
    from bentforge.psclass import is_in_ps_sharp, ps_ap

    g = ea_disguise(ps_ap(3, balanced_h3()), random.Random(3))
    code, out, _ = run_cli(capsys, "analyze", "--tt", to_tt_hex(g), "--sharp")
    assert code == 0
    assert json.loads(out)["ps_sharp"] == is_in_ps_sharp(g).as_dict()


def test_analyze_sharp_prints_null_on_a_published_function(capsys):
    tt = to_tt_hex(fx.published_bent8("delta0_mix"))
    code, out, _ = run_cli(capsys, "analyze", "--tt", tt, "--sharp")
    assert code == 0
    assert json.loads(out)["ps_sharp"] is None


def test_psclass_fails_fast_above_n8(capsys):
    from bentforge.boolfun import format_anf, to_anf, zero_function
    from bentforge.construct import mm_bent
    from bentforge.vectorial import identity_map

    anf = format_anf(to_anf(mm_bent(identity_map(5), zero_function(5))))
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "psclass", "--anf", anf)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "PS and PS# tests supported for n <= 8" in err

def test_construct_mm_and_concat(capsys, tmp_path):
    pi_file = tmp_path / "pi.anf"
    pi_file.write_text("y2*y3 + y1 + y2 + y3\ny1*y2 + y1*y3 + y2\ny1*y2 + y3")
    code, out, _ = run_cli(capsys, "construct", "mm", "--pi", str(pi_file), "--h", "y1*y2")
    data = json.loads(out)
    assert data["is_bent"] is True
    f = from_tt_hex(data["tt"])
    assert f.n == 6

    tt = data["tt"]
    code, out, _ = run_cli(
        capsys, "construct", "concat", "--f1", tt, "--f2", tt, "--f3", tt, "--f4", tt
    )
    data = json.loads(out)
    assert data["is_bent"] is False
    assert data["dual_bent_condition"] is False


def test_construct_concat_of_non_bent_pieces_has_no_dual_condition(capsys):
    pieces = ["--f1", "0", "--f2", "0", "--f3", "0", "--f4", "0", "--n", "4"]
    code, out, _ = run_cli(capsys, "construct", "concat", *pieces)
    data = json.loads(out)
    assert code == 0
    assert data["dual_bent_condition"] is None and data["is_bent"] is False


def test_construct_concat_names_no_dual_condition_when_one_piece_is_not_bent(capsys):
    # f1, f2 and f4 are bent, f3 = 0 is not
    bent = "x1*x2"
    pieces = ["--f1", bent, "--f2", bent, "--f3", "0", "--f4", bent, "--n", "2"]
    code, out, _ = run_cli(capsys, "construct", "concat", *pieces)
    data = json.loads(out)
    assert code == 0
    assert data["dual_bent_condition"] is None and data["is_bent"] is False


def test_construct_thm55(capsys):
    pi = "y2*y3 + y1 + y2 + y3\ny1*y2 + y1*y3 + y2\ny1*y2 + y3"
    code, out, _ = run_cli(
        capsys,
        "construct",
        "thm55",
        "--pi", pi,
        "--sigma", pi,
        "--h1", "0",
        "--h2", "0",
    )
    assert code == 0
    data = json.loads(out)
    assert data["certificate"]["verdict"] == "outside_mm_sharp"


def test_construct_extend_perm(capsys):
    ident = "y1\ny2\ny3"
    cube = "y2*y3 + y1 + y2 + y3\ny1*y2 + y1*y3 + y2\ny1*y2 + y3"
    code, out, _ = run_cli(
        capsys, "construct", "extend-perm", "--sigma1", ident, "--sigma2", cube
    )
    data = json.loads(out)
    assert data["has_p1"] is True


def test_construct_extend_perm_reports_a_failed_precondition(capsys):
    ident = "y1\ny2\ny3"
    code, out, err = run_cli(
        capsys, "construct", "extend-perm", "--sigma1", ident, "--sigma2", ident
    )
    assert (code, err) == (2, "")
    assert json.loads(out) == {
        "error": "second derivatives of sigma1 and sigma2 agree on a 2-space",
        "witness": ["100", "010"],
    }


PI3 = "gf2m:m=3,pow=3"


@pytest.mark.parametrize(
    "argv, missing",
    [
        pytest.param(["mm"], "--pi, --h", id="mm"),
        pytest.param(["concat", "--f1", "x1*x2"], "--f2, --f3, --f4", id="concat"),
        pytest.param(["extend-perm", "--sigma1", PI3], "--sigma2", id="extend-perm"),
        pytest.param(["thm55", "--pi", PI3], "--sigma, --h1, --h2", id="thm55"),
    ],
)
def test_construct_missing_flag_is_a_usage_error(capsys, argv, missing):
    with pytest.raises(SystemExit) as exc:
        main(["construct", *argv])
    assert exc.value.code == 2
    assert f"the following arguments are required: {missing}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(["mm", "--pi", PI3, "--h", "0", "--sigma", "x"], "--sigma", id="mm"),
        pytest.param(
            ["extend-perm", "--sigma1", PI3, "--sigma2", PI3, "--n", "3"], "--n", id="extend-perm"
        ),
        pytest.param(
            ["thm55", "--pi", PI3, "--sigma", PI3, "--h1", "0", "--h2", "0", "--f1", "x"],
            "--f1",
            id="thm55",
        ),
    ],
)
def test_construct_rejects_flags_the_recipe_never_reads(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(["construct", *argv])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_certify_thm53(capsys, tmp_path):
    q = fx.delta0_mix_quadruple()
    paths = []
    for i, f in enumerate(q.functions, 1):
        p = tmp_path / f"f{i}.tt"
        p.write_text(to_tt_hex(f))
        paths.append(str(p))
    code, out, _ = run_cli(
        capsys, "certify", "thm53",
        "--f1", paths[0], "--f2", paths[1], "--f3", paths[2], "--f4", paths[3],
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "outside_mm_sharp"


def test_certify_thm57(capsys, tmp_path):
    q = fx.apn_family_quadruple()
    args = ["certify", "thm57"]
    for i, f in enumerate(q.functions, 1):
        p = tmp_path / f"g{i}.tt"
        p.write_text(to_tt_hex(f))
        args += [f"--f{i}", str(p)]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert json.loads(out)["verdict"] == "outside_mm_sharp"


def test_certify_thm57_rejects_two_variable_pieces(capsys):
    pieces = ["--f1", "x1*x2", "--f2", "x1*x2", "--f3", "x1*x2", "--f4", "x1*x2+1"]
    code, out, err = run_cli(capsys, "certify", "thm57", *pieces, "--n", "2")
    assert code == 2
    assert out == ""
    assert err == "error: pieces must live on an even number >= 4 of variables\n"


@pytest.mark.parametrize(
    "prop,key",
    [("apn", "is_apn"), ("p1", "has_p1"), ("p2", "fully_satisfies_p2"),
     ("linstruct", "linear_structures")],
)
def test_perm_check(capsys, prop, key):
    pi = "y2*y3 + y1 + y2 + y3\ny1*y2 + y1*y3 + y2\ny1*y2 + y3"
    code, out, _ = run_cli(capsys, "perm-check", prop, "--vf", pi)
    assert code == 0
    data = json.loads(out)
    assert key in data
    assert data["is_permutation"] is True


def test_perm_check_p1_prints_the_witness(capsys):
    code, out, _ = run_cli(capsys, "perm-check", "p1", "--vf", HYPERPLANE_VANISHES)
    assert code == 0
    data = json.loads(out)
    assert data["has_p1"] is False
    assert data["witness"] == ["100", "001"]


@pytest.mark.parametrize(
    "pi, message",
    [
        (HYPERPLANE_VANISHES, "pi fails P1"),
        (to_vf_text(fx.apn_perm_m3()), "sigma has a vanishing subspace of dimension 2"),
    ],
    ids=["pi-fails-p1", "sigma-vanishes"],
)
def test_construct_thm55_reports_a_failed_precondition(capsys, pi, message):
    argv = ["--pi", pi, "--sigma", HYPERPLANE_VANISHES, "--h1", "0", "--h2", "0"]
    code, out, _ = run_cli(capsys, "construct", "thm55", *argv)
    assert code == 2
    assert json.loads(out) == {"error": message, "witness": ["100", "001"]}


@pytest.mark.parametrize("m, pi", [(1, "vf:m=1:0 1"), (2, "vf:m=2:0 1 3 2")], ids=["m1", "m2"])
def test_construct_thm55_rejects_m_below_3_before_any_graph(capsys, m, pi):
    # at m = 1 the sigma check asked for 2-dimensional subspaces of F_2^1;
    # at m = 2 every permutation is affine and fails P1
    argv = ["--pi", pi, "--sigma", pi, "--h1", "0", "--h2", "0"]
    code, out, err = run_cli(capsys, "construct", "thm55", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: Theorem 5.5 needs m >= 3 (n = 2m + 2 >= 8), got m = {m}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--anf", "1"], "cannot infer the variable count"),
        (["--anf", "x1 + + x2"], "empty term (at position 4)"),
        (["--anf", "x0"], "variable index 0 out of 1..1"),
        (["--anf", "w1"], "bad factor 'w1'"),
        (["--anf", ""], "empty term (at position 0)"),
        (["--tt", "tt:n=2:ff"], "bits at or above 2^2 are set in a table for n=2"),
        (["--tt", "tt:n=2:8"], "odd number of hex digits: give two per byte, 2 for the 1-byte"),
        (["--tt", "tt:n=21:00"], "n must be in 1..20, got 21\n"),
        (["--tt", "tt:n=200:00"], "n must be in 1..20, got 200\n"),
        (["--anf", "x1", "--n", "0"], "n must be in 1..20, got 0\n"),
        (["--anf", "x1", "--n", "-3"], "n must be in 1..20, got -3\n"),
        (["--anf", "x1", "--n", "21"], "n must be in 1..20, got 21\n"),
    ],
    ids=[
        "anf-without-variables", "anf-empty-term", "anf-x0", "anf-bad-factor", "anf-empty",
        "tt-padding-bits", "tt-odd-digits", "tt-n-21", "tt-n-200",
        "anf-n-0", "anf-n-minus-3", "anf-n-21",
    ],
)
def test_analyze_rejects_unusable_input(capsys, argv, message):
    code, out, err = run_cli(capsys, "analyze", *argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "one of the arguments --tt --anf is required"),
        (["--tt", "tt:n=2:08", "--anf", "x1"], "argument --anf: not allowed with argument --tt"),
    ],
    ids=["no-input", "both-inputs"],
)
def test_analyze_takes_exactly_one_input_flag(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_certify_rejects_an_explicit_n_out_of_range(capsys):
    pieces = ["--f1", "x1", "--f2", "x1", "--f3", "x1", "--f4", "x1", "--n", "0"]
    code, out, err = run_cli(capsys, "certify", "thm53", *pieces)
    assert (code, out, err) == (2, "", "error: n must be in 1..20, got 0\n")


def test_analyze_rejects_a_vanishing_pair_graph_above_n14(capsys):
    # at n = 16 the graph's word arrays alone would take 1 GiB
    tt = to_tt_hex(mm_bent(identity_map(8), zero_function(8)))
    code, out, err = run_cli(capsys, "analyze", "--tt", tt)
    assert code == 2 and out == ""
    assert "vanishing-pair graph supported for n <= 14" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--anf", "x1", "--n", "27"],
        ["perm-check", "p1", "--vf", "\n".join(f"x{j}" for j in range(1, 28))],
    ],
    ids=["anf", "coordinate-anfs"],
)
def test_anf_over_20_variables_is_rejected_before_its_table_is_built(capsys, argv):
    # a 2^27-entry table takes 128 MiB; the size check comes before it
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", "error: n must be in 1..20, got 27\n")
    assert peak < 1 << 20


def test_anf_on_34_variables_exits_2_under_an_address_space_cap():
    # x34 asks for a 16 GiB table, so the CLI runs in a child process
    # capped at 1.5 GB: a missing size check ends in a MemoryError there
    cap = 1500 << 20
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-m", "bentforge.cli", "analyze", "--anf", "x34"],
        env=env,
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (run.returncode, run.stdout, run.stderr) == (2, "", "error: n must be in 1..20, got 34\n")


def test_analyze_library_call_raises_on_unsupported_input():
    from bentforge.cli import analyze

    with pytest.raises(ValueError, match="PS# membership is defined for bent functions"):
        analyze(from_tt_hex("tt:n=4:0000"), sharp=True)


def mm_sharp_inputs() -> list[BooleanFunction]:
    """The published functions and their duals, seeded random MM functions
    at m = 2, 3, 4, x.y at n = 4, 6, 8, and all eight bent functions at
    n = 2."""
    published = [fx.published_bent8(name) for name in fx.PUBLISHED]
    rng = random.Random(34)
    return [
        *published,
        *map(dual, published),
        *(random_mm(m, rng) for m in (2, 3, 4) for _ in range(2)),
        *(mm_bent(identity_map(m), zero_function(m)) for m in (2, 3, 4)),
        *(BooleanFunction(2, t) for t in itertools.product((0, 1), repeat=4) if sum(t) % 2),
    ]


def test_analyze_mm_sharp_matches_dillon_search():
    # analyze takes MM# from the profile's walk, whose first n/2-dimensional
    # M-subspace is the one the early-exit search returns
    verdicts = set()
    for f in mm_sharp_inputs():
        want = is_in_mm_sharp(f)
        assert cli.analyze(f).mm_sharp == want, f.digest()
        verdicts.add(want is None)
    assert verdicts == {True, False}


def test_analyze_settles_mm_sharp_of_published_functions_from_the_profile(monkeypatch):
    def search(f):
        raise AssertionError("is_in_mm_sharp called")

    wants = [(f, is_in_mm_sharp(f)) for f in mm_sharp_inputs()]
    monkeypatch.setattr(cli, "is_in_mm_sharp", search)
    for f, want in wants:
        assert cli.analyze(f).mm_sharp == want, f.digest()


def test_perm_check_vf_literal(capsys):
    code, out, _ = run_cli(capsys, "perm-check", "apn", "--vf", "vf:m=3:0 1 3 4 5 6 7 2")
    data = json.loads(out)
    assert data["is_apn"] is True


def test_perm_check_accepts_field_power_map(capsys):
    code, out, _ = run_cli(capsys, "perm-check", "apn", "--vf", "gf2m:m=3,pow=3")
    assert json.loads(out)["is_apn"] is True
    code, out, _ = run_cli(capsys, "perm-check", "p2", "--vf", "gf2m:m=6,mod=43,pow=5")
    data = json.loads(out)
    assert data["fully_satisfies_p2"] is True and data["max_vanishing_dim"] <= 2


def test_perm_check_rejects_a_malformed_vf_literal(capsys):
    code, out, err = run_cli(capsys, "perm-check", "apn", "--vf", "vf:m=3:zz")
    assert code == 2 and out == ""
    assert "not a vectorial-function literal" in err


@pytest.mark.parametrize("m", [21, 99])
def test_perm_check_rejects_an_out_of_range_vf_literal(capsys, m):
    # checked before the 2^m value count is formed
    code, out, err = run_cli(capsys, "perm-check", "apn", "--vf", f"vf:m={m}:0")
    assert code == 2 and out == ""
    assert f"m must be in 1..20, got {m}\n" in err


def test_perm_check_field_without_power_names_the_suffix(capsys):
    code, out, err = run_cli(capsys, "perm-check", "apn", "--vf", "gf2m:m=4")
    assert code == 2 and out == ""
    assert ",pow=<d>" in err


def test_perm_check_field_with_non_integer_power_names_the_suffix(capsys):
    code, out, err = run_cli(capsys, "perm-check", "apn", "--vf", "gf2m:m=4,pow=3x")
    assert code == 2 and out == ""
    assert ",pow=<d>" in err


VERIFY_PAPER_LINES = [
    "PASS delta0-mix-anf-reproduction: bit-exact",
    "PASS transposed-anf-reproduction: bit-exact",
    "PASS apn-family-anf-reproduction: bit-exact",
    "PASS delta0-mix-bent-outside-mm: bent, no 4-dimensional M-subspace",
    "PASS transposed-bent-outside-mm: bent, no 4-dimensional M-subspace",
    "PASS apn-family-bent-outside-mm: bent, no 4-dimensional M-subspace",
    "PASS delta0-mix-outside-ps: exhaustive sweep none",
    "PASS transposed-outside-ps: exhaustive sweep none",
    "PASS apn-family-outside-ps: exhaustive sweep none",
    "PASS quadratic-msubspace-count-135: count 135, expect 135",
    "PASS two-msubspace-permutation: two without h, canonical only with h",
    "PASS p1-apn-battery: APN/P1 verdicts and S1/S2/P2 all as published",
    "PASS gold-vanishing-flat-count: count 336; the published n means m",
    "PASS gold-p2-and-extension-p1: Gold quintic P2 and extended permutation P1",
    "PASS p1-unique-msubspace-suite: unique canonical M-subspace for 10 random h at m=3 and m=4",
    "PASS linear-structure-witness-suite: 10 verified non-canonical witnesses",
    "PASS concatenation-algebra: dual condition and bentness agree on 100 bent and 100 non-bent quadruples",
    "PASS trace-cubic-bent: bent with the unique canonical M-subspace",
    "PASS delta0-mix-degree: degree 4",
    "PASS delta0-mix-dual-bent-condition: f1*+f2*+f3*+f4* = 1",
    "PASS thm53-certifies-delta0-mix: outside_mm_sharp",
    "PASS thm57-certifies-apn-family: outside_mm_sharp",
    "# OK",
]


def test_verify_paper(capsys):
    code, out, _ = run_cli(capsys, "verify-paper")
    assert code == 0
    lines = out.strip().splitlines()
    timing = re.compile(r" \[\d+\.\ds\]$")
    assert all(timing.search(l) for l in lines[:-1])
    assert [timing.sub("", l) for l in lines] == VERIFY_PAPER_LINES


def test_verify_paper_flags_tampered_fixture(capsys, monkeypatch):
    # negative control: a corrupted fixture must produce a FAIL line
    import bentforge.verify as verify
    import bentforge.fixtures as fixtures

    real = fixtures.published_bent8

    def tampered(name):
        f = real(name)
        t = f.table.copy()
        t[0] ^= 1
        return type(f)(f.n, t)

    monkeypatch.setattr(verify.fx, "published_bent8", tampered)
    count = verify.run_claims()
    assert count > 0
    assert any(line.startswith("FAIL") for line in capsys.readouterr().out.splitlines())
