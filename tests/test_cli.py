import json
import time

import pytest

from bentforge import fixtures as fx
from bentforge.boolfun import from_tt_hex, to_tt_hex
from bentforge.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_analyze_json_round_trips_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--anf", "x1*x2 + x3*x4")
    parsed = json.loads(out)
    assert json.dumps(parsed, sort_keys=True, indent=2) == out.strip()


def test_analyze_reproducible_apart_from_timings(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "--anf", "x1*x2+x3*x4")
    _, out2, _ = run_cli(capsys, "analyze", "--anf", "x1*x2+x3*x4")
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("timings")
    r2.pop("timings")
    assert r1 == r2


def test_analyze_sharp_small(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--anf", "x1*x2+x3*x4", "--sharp")
    report = json.loads(out)
    assert "ps_sharp" in report


def test_analyze_sharp_rejects_non_bent(capsys):
    code, out, err = run_cli(capsys, "analyze", "--anf", "x1*x2*x3", "--sharp")
    assert code != 0


@pytest.mark.parametrize(
    "n, anf, message",
    [
        (10, None, "PS# sweep supported for n <= 8"),
        (4, "x1*x2*x3 + x4", "PS# analysis needs a bent function on even n"),
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
    # at n = 10 the literal has 264 characters, more than a file name may have
    from bentforge.boolfun import zero_function
    from bentforge.cli import load_boolean_source
    from bentforge.construct import mm_bent
    from bentforge.vectorial import identity_map

    f = mm_bent(identity_map(5), zero_function(5))
    assert load_boolean_source(to_tt_hex(f)) == f


@pytest.mark.parametrize("command", ["analyze", "psclass", "verify-paper"])
def test_jobs_flag_is_rejected(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


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
    assert "# 135 subspaces" in out


def test_msub_json(capsys):
    code, out, _ = run_cli(
        capsys, "msub", "--anf", "x1*x2+x3*x4", "--dim", "2", "--json"
    )
    data = json.loads(out)
    assert len(data["subspaces"]) == 15


def test_profile_json(capsys):
    code, out, _ = run_cli(capsys, "profile", "--anf", "x1*x2+x3*x4+x5*x6")
    data = json.loads(out)
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



def test_psclass_fails_fast_above_n8(capsys):
    from bentforge.boolfun import format_anf, to_anf, zero_function
    from bentforge.construct import mm_bent
    from bentforge.vectorial import identity_map

    anf = format_anf(to_anf(mm_bent(identity_map(5), zero_function(5))))
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "psclass", "--anf", anf)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "PS test supported for n <= 8" in err

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

    code, out, _ = run_cli(
        capsys, "construct", "extend-perm", "--sigma1", ident, "--sigma2", ident
    )
    assert code == 2
    assert "witness" in json.loads(out)


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


def test_perm_check_field_without_power_names_the_suffix(capsys):
    code, out, err = run_cli(capsys, "perm-check", "apn", "--vf", "gf2m:m=4")
    assert code == 2 and out == ""
    assert ",pow=<d>" in err


def test_perm_check_field_with_non_integer_power_names_the_suffix(capsys):
    code, out, err = run_cli(capsys, "perm-check", "apn", "--vf", "gf2m:m=4,pow=3x")
    assert code == 2 and out == ""
    assert ",pow=<d>" in err


def test_verify_paper_fast(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--fast")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(l.startswith(("PASS", "SKIP", "#")) for l in lines)
    assert any(l.startswith("SKIP") for l in lines)  # PS# stages skipped
    assert lines[-1] == "# OK"


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
    failures = []
    count = verify.run_claims(fast=True, report=failures.append)
    assert count > 0
    assert any(line.startswith("FAIL") for line in failures)
