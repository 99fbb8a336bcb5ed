import json
import subprocess
import sys
from pathlib import Path

import pytest

import finhyp.cli as cli
from finhyp.checks import CheckReport
from finhyp.cli import main
from finhyp.cyclo import CycloNum
from finhyp.errors import OutOfRange
from finhyp.finfield import make_field
from finhyp.hypergeometric import algebra_sum_fourier, orbit_instance
from finhyp.params import HGParams

GOLDEN_VERIFY = Path(__file__).parent / "data" / "verify_seed1.jsonl"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_hq_rational_value(capsys):
    code, out = run_cli(
        capsys, "hq", "--alpha", "1/2,1/2", "--beta", "0,0",
        "--q", "13", "--t", "2", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "finhyp/1"
    value = payload["results"][0]["value"]
    assert value["rational"] == "6"
    assert CycloNum.from_json(value) == 6


def test_hq_json_round_trip(capsys):
    code, out = run_cli(
        capsys, "hq", "--alpha", "1/4,3/4", "--beta", "0,1/2",
        "--q", "5", "--all-t", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    for entry in payload["results"]:
        v = CycloNum.from_json(entry["value"])
        assert CycloNum.from_json(v.to_json()) == v


def test_hq_split_agrees_with_classic(capsys):
    base = ["hq", "--alpha", "1/6", "--beta", "1/2", "--q", "7", "--all-t", "--json"]
    code1, out1 = run_cli(capsys, *base)
    code2, out2 = run_cli(capsys, *base, "--algebra", "split")
    assert code1 == code2 == 0
    assert json.loads(out1)["results"] == json.loads(out2)["results"]


def test_hq_orbits_sums_over_f_q(capsys):
    code, out = run_cli(
        capsys, "hq", "--alpha", "1/2,1/2", "--beta", "0,0", "--q", "7",
        "--algebra", "orbits", "--t", "3", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    expected = algebra_sum_fourier(orbit_instance(HGParams.parse("1/2,1/2", "0,0"), 7), 3)
    assert payload["q"] == 7
    assert CycloNum.from_json(payload["results"][0]["value"]) == expected


def test_byte_identical_output(capsys):
    argv = ["gp", "--alpha", "1/2", "--beta", "0", "--p", "7",
            "--all-t", "--prec", "5", "--json"]
    _, out1 = run_cli(capsys, *argv)
    _, out2 = run_cli(capsys, *argv)
    assert out1 == out2


def test_gp_both_routes(capsys):
    code, out = run_cli(
        capsys, "gp", "--alpha", "1/5,2/5,3/5,4/5", "--beta", "0,0,0,0",
        "--p", "7", "--t", "3", "--prec", "6", "--route", "both", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    entry = payload["results"][0]
    assert entry["agree"] is True
    assert entry["direct"]["digits"] == entry["algebra"]["digits"]


def test_gauss_command(capsys):
    code, out = run_cli(capsys, "gauss", "--p", "5", "--m", "2", "--prec", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    g = CycloNum.from_json(payload["exact"])
    assert g * g.conj() == 5
    assert payload["gross_koblitz"]["pi_exponent"] == "2"


def test_delta_command(capsys):
    code, out = run_cli(
        capsys, "delta", "--alpha", "1/5,4/5", "--beta", "0,0", "--p", "11", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["common_denominator"] == 5
    assert payload["stabilizer"] == [1, 4]
    assert payload["defined_over_Q"] is False
    assert payload["delta"] == 0 and payload["Delta"] == 0
    assert payload["splits"] is True
    assert payload["lambda"][0] == 0
    assert [o["length"] for o in payload["alpha_orbits"]] == [1, 1]


def test_verify_subset(capsys):
    code, out = run_cli(
        capsys, "verify", "--check", "gauss_norm", "--seed", "3", "--json",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines and all(l["verdict"] == "pass" for l in lines)
    assert all({"check", "instance", "verdict", "millis"} <= set(l) for l in lines)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hq", "--alpha", "1/2", "--q", "5", "--t", "1"])  # missing --beta
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--max-q", "--max-p"])
def test_verify_has_no_size_flags(capsys, flag):
    # the suite's instances are fixed; no flag bounds their q or p
    with pytest.raises(SystemExit) as exc:
        main(["verify", flag, "5"])
    assert exc.value.code == 2


def test_semantic_error_exit_code(capsys):
    code = main(["hq", "--alpha", "1/5", "--beta", "0", "--q", "7", "--t", "1"])
    assert code == 2  # assumption fails at q = 7


@pytest.mark.parametrize("argv,field", [
    (["hq", "--alpha", "1/2", "--beta", "0", "--q", "9", "--t", "10", "--json"], (3, 2)),
    (["hq", "--alpha", "1/2", "--beta", "0", "--q", "9", "--t", "-1", "--json"], (3, 2)),
    (["gp", "--alpha", "1/2", "--beta", "0", "--p", "5", "--t", "6"], (5, 1)),
])
def test_t_out_of_range_is_usage_error(argv, field, capsys):
    # codes are not reduced mod q (or mod p): --t 10 at q = 9 is refused, not read as 1
    field = make_field(*field)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"outside 1..{field.q - 1}" in captured.err
    with pytest.raises(OutOfRange):
        cli._t_values(cli._build_parser().parse_args(argv), field)


def test_resource_bound_exit_code(capsys):
    # 8196 Gamma_p values mod 4099^6: W is about 3.7 * 10^7
    code = main(["gp", "--alpha", "1/2", "--beta", "0", "--p", "4099", "--t", "1"])
    assert code == 3


def test_delta_refuses_a_large_denominator(capsys):
    # D = 96577: the loops over the units mod D are refused, not run
    code = main(["delta", "--alpha", "1/17,1/19", "--beta", "1/23,1/13"])
    assert code == 3


@pytest.mark.parametrize("argv", [
    # 2^61 - 1 and (2^31 - 1)^2: trial division of q would not end
    ["hq", "--alpha", "1/2", "--beta", "0", "--t", "1", "--q", "2305843009213693951"],
    ["hq", "--alpha", "1/2", "--beta", "0", "--t", "1", "--q", "4611686014132420609"],
    # a table of p - 1 exponents: a million entries, then 2^61 - 2
    ["delta", "--alpha", "1/2", "--beta", "0", "--p", "1000003"],
    ["delta", "--alpha", "1/2", "--beta", "0", "--p", "2305843009213693951"],
])
def test_huge_q_or_p_is_refused_at_once(argv):
    # in a subprocess with a timeout, so that a regression fails, not hangs
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from finhyp.cli import main; "
            "sys.exit(main(sys.argv[2:]))")
    run = subprocess.run([sys.executable, "-c", code, src, *argv],
                         capture_output=True, text=True, timeout=5)
    assert run.returncode == 3
    assert run.stderr.startswith("resource bound:")


def test_gp_cheap_gamma_request_runs(capsys):
    code, out = run_cli(
        capsys, "gp", "--alpha", "1/2,1/2", "--beta", "0,0", "--p", "13",
        "--t", "1", "--prec", "8", "--json",
    )
    assert code == 0
    assert json.loads(out)["results"][0]["direct"]["digits"] == [1, 0, 0, 0, 0, 0, 0, 0]


def test_gauss_cheap_gamma_request_runs(capsys):
    assert main(["gauss", "--p", "19", "--m", "3", "--prec", "7"]) == 0


def test_missing_t_is_usage_error(capsys):
    code = main(["hq", "--alpha", "1/2", "--beta", "0", "--q", "5"])
    assert code == 2


@pytest.mark.parametrize("prec", ["-2", "0"])
def test_nonpositive_prec_is_usage_error(capsys, prec):
    code = main([
        "gp", "--alpha", "1/2", "--beta", "0", "--p", "7", "--t", "1", "--prec", prec,
    ])
    assert code == 2
    assert "precision" in capsys.readouterr().err


def test_gauss_nonpositive_prec_is_usage_error(capsys):
    code = main(["gauss", "--p", "5", "--m", "2", "--prec", "0"])
    assert code == 2
    assert "precision" in capsys.readouterr().err


def test_verify_output_matches_golden(capsys):
    # every line of the default suite, timings removed; a change to any
    # verdict, instance or witness shows up here
    code, out = run_cli(capsys, "verify", "--check", "all", "--json", "--seed", "1")
    assert code == 0
    lines = []
    for line in out.splitlines():
        report = json.loads(line)
        del report["millis"]
        lines.append(json.dumps(report, sort_keys=True, separators=(",", ":")))
    assert lines == GOLDEN_VERIFY.read_text().splitlines()


def test_gp_both_without_precision_is_inconclusive(capsys):
    # delta = 1 at prec 1: both sides are O(13^0), nothing is compared
    code, out = run_cli(
        capsys, "gp", "--alpha", "1/3,2/3", "--beta", "1/2,1/2", "--p", "13",
        "--t", "2", "--prec", "1", "--route", "both", "--json",
    )
    assert code == 1
    assert json.loads(out)["results"][0]["agree"] is None


def test_verify_prints_inconclusive(capsys, monkeypatch):
    report = CheckReport("gp_equals_hp", "instance", "inconclusive", {"prec": 1, "delta": 1})
    monkeypatch.setattr(cli, "run_full_suite", lambda **kwargs: [report])
    code, out = run_cli(capsys, "verify")
    assert code == 1
    assert out.startswith("INCONCLUSIVE gp_equals_hp")
    assert out.splitlines()[-1] == "1 checks, 0 failures, 1 inconclusive"


@pytest.mark.parametrize("argv", [
    ["hq", "--alpha", "abc", "--beta", "0", "--q", "5", "--t", "1"],
    ["hq", "--alpha", "1/0", "--beta", "0", "--q", "5", "--t", "1"],
    ["gauss", "--p", "5", "--f", "0", "--m", "1"],
    ["delta", "--alpha", "1/2", "--beta", "0", "--p", "4"],
    ["delta", "--alpha", "1/2", "--beta", "0", "--p", "1"],
    ["delta", "--alpha", "1/2", "--beta", "0", "--p", "-5"],
    ["hq", "--alpha", "1/2,1/2", "--beta", "0,0", "--q", "9", "--algebra", "orbits",
     "--t", "1"],
])
def test_malformed_input_is_usage_error(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
