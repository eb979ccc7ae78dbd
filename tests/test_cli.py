"""Command-line interface: formats, exit codes, atomic output, determinism."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from fractions import Fraction

import pytest

from contractlab import cli, dist, ptas, serialize
from contractlab.cli import main
from contractlab.dist import grid_points
from contractlab.solver import candidate_contract_set
from helpers import candidate_contracts_by_rows

DESK = {
    "F": [["1", "0"], ["0", "1"]],
    "r": ["0", "1"],
    "c": ["0", "1/2"],
    "labels": ["idle", "work"],
}
UNIFORM = {"kind": "piecewise", "breakpoints": ["0", "1"], "densities": ["1"]}
TWO_TYPES = {
    "kind": "discrete",
    "points": ["1/4", "3/4"],
    "weights": ["1/2", "1/2"],
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, payload in (
        ("instance", DESK),
        ("uniform", UNIFORM),
        ("types", TWO_TYPES),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def test_solve_discrete(files, capsys):
    code, out, _ = run(
        capsys,
        "solve-discrete",
        "--instance",
        files["instance"],
        "--dist",
        files["types"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "5/8"
    assert payload["contract"] == ["0", "3/8"]
    assert payload["tuples_solved"] == 3
    assert payload["config"]["command"] == "solve-discrete"


def test_ptas(files, capsys):
    code, out, _ = run(
        capsys,
        "ptas",
        "--instance",
        files["instance"],
        "--dist",
        files["uniform"],
        "--eps",
        "0.4",
        "--delta",
        "0.25",
        "--alpha",
        "0.5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["contract"] == ["0", "23/32"]
    assert payload["discrete_value"] == "9/16"
    assert payload["k"] == 4
    assert payload["config"]["delta"] == "1/4"
    assert payload["config"]["alpha"] == "1/2"


def test_ptas_default_grid(files, capsys):
    # eps = 0.4 sets delta = 1/100: 101 chains over k = 100 types
    code, out, _ = run(
        capsys,
        "ptas",
        "--instance",
        files["instance"],
        "--dist",
        files["uniform"],
        "--eps",
        "0.4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 100
    assert payload["config"]["delta"] == "1/100"
    assert payload["contract"] == ["0", "2191/4000"]
    assert payload["discrete_value"] == "201/400"


def test_ptas_float_mode_prints_numbers(files, capsys):
    code, out, _ = run(
        capsys,
        "ptas",
        "--instance",
        files["instance"],
        "--dist",
        files["uniform"],
        "--mode",
        "float",
        "--eps",
        "0.4",
        "--delta",
        "0.25",
        "--alpha",
        "0.5",
    )
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload["discrete_value"], float)
    assert payload["discrete_value"] == pytest.approx(9 / 16, abs=1e-12)
    assert all(isinstance(x, float) for x in payload["contract"])


def test_reduce_setcover(files, capsys):
    code, out, _ = run(
        capsys, "reduce-setcover", "--universe", "3", "--sets", "1,2;2;1,3;3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {"actions": 14, "outcomes": 6, "types": 4}
    assert payload["params"]["rho"] == "1/729"
    assert len(payload["instance"]["F"]) == 14
    assert payload["type_instance"]["points"] == ["0", "1/3", "2/3", "1"]


def test_verify_reduction(files, capsys):
    code, out, _ = run(
        capsys,
        "verify-reduction",
        "--universe",
        "3",
        "--sets",
        "1,2;2;1,3;3",
        "--cover",
        "2,3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["total"] == payload["ell"] == "177607/387420489"
    assert payload["gap"] == "1/57395628"
    assert payload["onlyif"]["ok"] is True
    assert [t["action"] for t in payload["per_type"]] == [
        "astar",
        "a[1,S3]",
        "a[2,S2]",
        "a[3,S3]",
    ]


def test_bandit_regret_csv(files, capsys):
    code, out, _ = run(
        capsys,
        "bandit-regret",
        "--instance",
        files["instance"],
        "--dist",
        files["uniform"],
        "-T",
        "64",
        "--seeds",
        "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: ") :])
    assert config["horizon"] == 64
    assert lines[1] == "seed,t,cum_regret"
    assert len(lines) == 2 + 2 * 64
    first = lines[2].split(",")
    assert first[0] == "0" and first[1] == "1"
    float(first[2])


def test_bandit_pac_success_and_guard(files, capsys):
    code, out, _ = run(
        capsys,
        "bandit-pac",
        "--instance",
        files["instance"],
        "--dist",
        files["uniform"],
        "--eta",
        "12",
        "--delta",
        "0.1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["contract"] == ["0", "31/64"]
    assert payload["samples"] == 1008
    code2, _, err = run(
        capsys,
        "bandit-pac",
        "--instance",
        files["instance"],
        "--dist",
        files["uniform"],
        "--eta",
        "0.2",
        "--delta",
        "0.1",
    )
    assert code2 == 3
    assert "error:" in err


def test_bandit_pac_guard_builds_no_grid(files, capsys, monkeypatch):
    # eta = 0.2 gives 57,600 grid points; the guard counts them, builds none
    def no_grid(delta):
        raise AssertionError("the dimension guard must not build the grid")

    monkeypatch.setattr(dist, "grid_points", no_grid)
    code, out, err = run(
        capsys,
        "bandit-pac",
        "--instance",
        files["instance"],
        "--dist",
        files["uniform"],
        "--eta",
        "0.2",
        "--delta",
        "0.1",
    )
    assert (code, out) == (3, "")
    assert err == (
        "error: type grid too fine for exact candidate enumeration: eps=1.74e-05 "
        "gives dimension 57600 > 512; the candidate pool grows combinatorially "
        "in the grid size\n"
    )


def test_bandit_pac_contract_is_an_exact_candidate(files, capsys):
    # eta = 8 on DESK/uniform gives the grid width (8 / 48)^2 = 1/36; the
    # printed contract is one of the exact candidates on that grid
    code, out, _ = run(
        capsys,
        "bandit-pac",
        "--instance",
        files["instance"],
        "--dist",
        files["uniform"],
        "--eta",
        "8",
        "--delta",
        "0.1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["eps"] == 1 / 36
    contract = tuple(Fraction(x) for x in payload["contract"])
    desk = serialize.load_instance(files["instance"], "rational")
    assert contract in candidate_contract_set(desk, grid_points(Fraction(1, 36)))


@pytest.mark.parametrize("seed", ["1", "2"])
def test_bandit_pac_eta5_contract_is_a_reference_candidate(files, capsys, seed):
    # the benchmark's settings: eta = 5 gives the grid width (5 / 48)^2 and
    # d = 93; the contract is checked against the subset-of-rows reference
    code, out, _ = run(
        capsys,
        "bandit-pac",
        "--instance",
        files["instance"],
        "--dist",
        files["uniform"],
        "--eta",
        "5",
        "--delta",
        "1/10",
        "--seed",
        seed,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 93
    contract = tuple(Fraction(x) for x in payload["contract"])
    desk = serialize.load_instance(files["instance"], "rational")
    types = grid_points(Fraction(5, 48) ** 2)
    assert contract in candidate_contracts_by_rows(desk, types)
    # pinned: the output of the one-pair sampler on these seeds
    assert payload["contract"] == ["0", "475/1024"]
    assert payload["samples"] == 64512


def test_bandit_regret_curves_pinned(files, capsys):
    # the benchmark's regret settings; the digest of every line after the
    # config line (which holds the input paths) is that of the one-pair sampler
    out_path = files["dir"] / "regret.csv"
    code, _, _ = run(
        capsys,
        "bandit-regret",
        "--instance",
        files["instance"],
        "--dist",
        files["uniform"],
        "-T",
        "2000",
        "--seeds",
        "2",
        "-o",
        str(out_path),
    )
    assert code == 0
    body = out_path.read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == (
        "0f76227c83464b9fd89fd8a7849dde93ef44d875e43cd8f8e18d42ca484bfbba"
    )


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["reduce-setcover", "--universe", "3", "--sets", "1,2;2;1,3;3"],
            "207a48cc5dd3e91451368abd91638a902428c45982c07ab37fa6b1f0f95a2464",
        ),
        (
            ["verify-reduction", "--universe", "3", "--sets", "1,2;2;1,3;3",
             "--cover", "2,3"],
            "6cb88bef34694a7a558689f83501e47b3fbc03934b254a5409c9b06ad2896c52",
        ),
        (
            ["reduce-setcover", "--universe", "5", "--sets", "1,2,3;3,4;4,5;1,5;2,4"],
            "da6fe64344ed17f5d5366b25ff7b3f5dc8d54597d7e3f477d85f3c280feeef5e",
        ),
        (
            ["verify-reduction", "--universe", "5", "--sets", "1,2,3;3,4;4,5;1,5;2,4",
             "--cover", "1,3"],
            "5e87f77d2f84b932f6cdc46c019dbe795583c5d8ddbcbefc8e1648a52d56c510",
        ),
        (
            ["reduce-setcover", "--universe", "4", "--sets", "2,4;1,2;2,3;3,4"],
            "f7450c52b6adb667b2ba63ad53af7b53ea7753beb4b09185ef9ac06a4ab35733",
        ),
        (
            ["verify-reduction", "--universe", "4", "--sets", "2,4;1,2;2,3;3,4",
             "--cover", "2,4"],
            "49ac39f3f541d72af450f66e409a404b9e1a5bb562b1201b727a8c420378bbbc",
        ),
        (
            ["reduce-setcover", "--universe", "6", "--sets",
             "3,5,6;1,2,3;2,5,6;1,2,3;1,5,6;1,4,5"],
            "aa32ce1c554ca5fae725824cab7c11f659aab057f71a6136fef14daab7eb17ea",
        ),
        (
            ["verify-reduction", "--universe", "6", "--sets",
             "3,5,6;1,2,3;2,5,6;1,2,3;1,5,6;1,4,5", "--cover", "1,2,6"],
            "61f78813ffe75b740f409455a404dd18592da178f6fb1d346b7fd85e4e405410",
        ),
    ],
    ids=["reduce-n3", "verify-n3", "reduce-n5", "verify-n5", "reduce-n4", "verify-n4",
         "reduce-n6", "verify-n6"],
)
def test_hardness_commands_pinned(capsys, argv, digest):
    # every byte of the reduction and verifier output, as the Fraction
    # best-response kernel printed it; the n = 4 and n = 6 systems are those
    # of the benchmark's hardness_verify plan at seed 1
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


TRIO = {
    "F": [["3/4", "1/4", "0"], ["1/4", "1/2", "1/4"], ["0", "1/4", "3/4"]],
    "r": ["0", "1/2", "1"],
    "c": ["0", "1/4", "1/2"],
}
TWO_PIECE = {
    "kind": "piecewise",
    "breakpoints": ["0", "1/2", "1"],
    "densities": ["1/2", "3/2"],
}
THREE_TYPES = {
    "kind": "discrete",
    "points": ["1/5", "1/2", "4/5"],
    "weights": ["1/4", "1/2", "1/4"],
}


def _solve(inst, types, mode, *bounded):
    return ["solve-discrete", "--instance", inst, "--dist", types,
            "--mode", mode, *bounded]


def _ptas(inst, density, delta, alpha, mode):
    return ["ptas", "--instance", inst, "--dist", density, "--eps", "0.4",
            "--delta", delta, "--alpha", alpha, "--mode", mode]


def _pac(eta, mode="float", *seed):
    return ["bandit-pac", "--instance", "desk.json", "--dist", "uniform.json",
            "--eta", eta, "--delta", "1/10", "--mode", mode, *seed]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["selftest"],
         "6bd6e96665f868e95c9578b8e7ad1bba62285b1d97a01efd85b6b0bf181ab1e7"),
        (_solve("desk.json", "two-types.json", "rational"),
         "34219b1153fddd4f496af221b4de8c8bf7245a0a73fb0733c5c6b14fa5b95008"),
        (_solve("desk.json", "two-types.json", "rational", "--bounded"),
         "70aeef08c2b8c23cf97a76832e3fe3116e944374dd18abc431c99f00899c3ebb"),
        (_solve("desk.json", "two-types.json", "float"),
         "d5e908dbe66df4defd7e19a943f0b6656b54967048b1a725911e7b427d1958ac"),
        (_solve("desk.json", "two-types.json", "float", "--bounded"),
         "0b0f226eaef64b215a0a99cd3d1ca3fb609c2dd9bb9d832529c4b212031ad69f"),
        (_solve("trio.json", "three-types.json", "rational"),
         "a86c8db4c244fec5305a971e40d0eeeec0f09f4b47c802af84a6d6a2a0df3a8f"),
        (_solve("trio.json", "three-types.json", "rational", "--bounded"),
         "b8d87bb99fc978268c042f8f7af15a82dc2e89ce295f386e54c22a7c7427835b"),
        (_solve("trio.json", "three-types.json", "float"),
         "58d0aa344ea014782f0fb658cd98dce0760ce68dbc080b2506fb694b6aa762f5"),
        (_solve("trio.json", "three-types.json", "float", "--bounded"),
         "b473a8d8271a05d5fd9312e65720a951e879c559f906c8dced2cf84b0b856571"),
        (_ptas("desk.json", "uniform.json", "1/9", "1/3", "float"),
         "e606b79b65501b58489b27d9744705c59fe42c7e19264b843ce2e17514c8a654"),
        (_ptas("trio.json", "two-piece.json", "1/6", "1/4", "rational"),
         "77955a33b48b2d525221689ea83cf1f1314d0e0d7bdee22cad30ee4d74869dd5"),
        (_ptas("trio.json", "two-piece.json", "1/6", "1/4", "float"),
         "37e4543766cc28fe351ff246700cf28f6a61b0d5e6d4c40c2636fd41d65ec5aa"),
        (_pac("5"),
         "4864d1a92459e5883b9a6a37b9ab1304b9add299e9fc38561a1c96d3795657bd"),
        (_pac("12"),
         "6913c76aa97ea0e9a9082a4acc13c368c4ba7ff32b29e5007f0e2584b99ca07a"),
        (_pac("5", "rational", "--seed", "1"),
         "f571aae277a7bfee88a448ae45a3f861e94ea9e2bbd0b9838147211558a88cb9"),
        (_pac("5", "rational", "--seed", "2"),
         "29b21c8faddd9663bc51043e8ef258dc43fcc2f920347f6a7199464d33b910b1"),
        (["bandit-regret", "--instance", "desk.json", "--dist", "uniform.json",
          "-T", "2000", "--seeds", "2"],
         "3fe5bdde4cb777d65552a3ac432896ab195dce5ad6a2a6d14c62e520f56ab47f"),
    ],
    ids=[
        "selftest",
        "solve-desk-rational", "solve-desk-rational-bounded",
        "solve-desk-float", "solve-desk-float-bounded",
        "solve-trio-rational", "solve-trio-rational-bounded",
        "solve-trio-float", "solve-trio-float-bounded",
        "ptas-desk-float", "ptas-trio-rational", "ptas-trio-float",
        "pac-float-eta5", "pac-float-eta12",
        "pac-rational-eta5-seed1", "pac-rational-eta5-seed2", "regret-desk-T2000",
    ],
)
def test_solver_commands_pinned(capsys, monkeypatch, tmp_path, argv, digest):
    # every byte of the output; the inputs are named relative to the working
    # directory, so the config block is the same on every run
    for name, payload in (
        ("desk.json", DESK), ("trio.json", TRIO), ("uniform.json", UNIFORM),
        ("two-piece.json", TWO_PIECE), ("two-types.json", TWO_TYPES),
        ("three-types.json", THREE_TYPES),
    ):
        (tmp_path / name).write_text(json.dumps(payload))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(c["ok"] for c in payload["checks"])


def test_selftest_failed_check_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_selftest_checks", lambda: [("ok", True), ("bad", False)])
    code, out, err = run(capsys, "selftest")
    assert (code, err) == (1, "")
    assert json.loads(out)["ok"] is False


# ---------------------------------------------------------------------------
# Errors and exit codes
# ---------------------------------------------------------------------------


def test_malformed_instance_exit_2(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"F": [["1"]], "r": ["1"]}))
    code, _, err = run(
        capsys, "solve-discrete", "--instance", str(bad), "--dist", files["types"]
    )
    assert code == 2
    assert "bad.json" in err


def test_bad_cover_exit_2(capsys):
    code, _, err = run(
        capsys,
        "verify-reduction",
        "--universe",
        "3",
        "--sets",
        "1,2;2",
        "--cover",
        "9",
    )
    assert code == 2
    assert "error:" in err


_SETS = ["--universe", "3", "--sets", "1,2;2,3"]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["reduce-setcover", "--universe", "3", "--sets", "1,2;x"],
                     "--sets: cannot parse group 'x'", id="sets-unparsable"),
        pytest.param(["reduce-setcover", "--universe", "3", "--sets", " ; ;"],
                     "--sets: need at least one set", id="sets-empty"),
        pytest.param(["verify-reduction", *_SETS, "--cover", "1,b"],
                     "--cover: cannot parse '1,b'", id="cover-unparsable"),
        pytest.param(["verify-reduction", *_SETS, "--cover", ","],
                     "--cover: need at least one set id", id="cover-empty"),
        pytest.param(["bandit-regret", "--instance", "{instance}", "--dist", "{uniform}",
                      "-T", "0"], "horizon must be positive, got 0", id="regret-horizon"),
        pytest.param(["bandit-regret", "--instance", "{instance}", "--dist", "{uniform}",
                      "-T", "16", "--seeds", "0"], "seed count must be positive, got 0",
                     id="regret-seeds"),
        pytest.param(["ptas", "--instance", "{instance}", "--dist", "{uniform}",
                      "--eps", "0.4", "--delta=-1"], "delta must lie in (0,1], got -1",
                     id="ptas-negative-delta"),
        pytest.param(["ptas", "--instance", "{instance}", "--dist", "{uniform}",
                      "--eps", "0.4", "--delta=-1", "--mode", "float"],
                     "delta must lie in (0,1], got -1.0", id="ptas-negative-delta-float"),
    ],
)
def test_usage_errors_exit_2(files, capsys, argv, message):
    code, out, err = run(capsys, *(a.format(**files) for a in argv))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_ptas_chain_guard_builds_no_grid(files, capsys, monkeypatch):
    # eps = 1/10^6 gives delta = 1/(16 10^12): 16 10^12 types, so at least
    # 16 10^12 + 1 chains on the two DESK actions
    def no_grid(gamma, delta):
        raise AssertionError("the chain guard must not build the grid")

    monkeypatch.setattr(ptas, "discretize", no_grid)
    code, out, err = run(
        capsys, "ptas", "--instance", files["instance"], "--dist", files["uniform"],
        "--eps", "1/1000000",
    )
    assert (code, out) == (3, "")
    assert err == (
        "error: action-chain enumeration would solve at least 16000000000001 LPs "
        "(2 actions, 16000000000000 types), above the guard of 10000000\n"
    )


def test_ptas_grid_guard_on_one_action(files, capsys, tmp_path, monkeypatch):
    # one action has one chain, but 16 10^12 grid types are refused all the same
    def no_grid(gamma, delta):
        raise AssertionError("the grid guard must not build the grid")

    monkeypatch.setattr(ptas, "discretize", no_grid)
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"F": [["1", "0"]], "r": ["0", "1"], "c": ["0"]}))
    code, out, err = run(
        capsys, "ptas", "--instance", str(one), "--dist", files["uniform"],
        "--eps", "1/1000000",
    )
    assert (code, out) == (3, "")
    assert err == (
        "error: the grid would hold 16000000000000 types (1 action), and "
        "16000000000001 is above the guard of 10000000\n"
    )


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "command, kind, payload, field",
    [
        ("solve-discrete", "types", {**TWO_TYPES, "weights": [NAN, 1.0]}, "weights[0]"),
        ("solve-discrete", "instance", {**DESK, "c": ["0", INF]}, "c[1]"),
        ("solve-discrete", "instance", {**DESK, "c": ["0", "1e400"]}, "c[1]"),
        ("bandit-regret", "uniform", {**UNIFORM, "densities": [NAN]}, "densities[0]"),
    ],
    ids=["nan-weight", "infinite-cost", "overflowing-cost", "nan-density"],
)
def test_float_mode_refuses_non_finite_input(
    files, capsys, tmp_path, command, kind, payload, field
):
    # json reads NaN, Infinity and 1e400 as floats, and "1e400" overflows one
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    paths = {**files, kind: str(bad)}
    dist_file = paths["types"] if command == "solve-discrete" else paths["uniform"]
    argv = [command, "--instance", paths["instance"], "--dist", dist_file]
    if command == "bandit-regret":
        argv += ["--horizon", "16"]
    code, out, err = run(capsys, *argv, "--mode", "float")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: {field}: number ")
    assert err.endswith(" has no finite float value\n")


def test_float_mode_refuses_overflowing_flag(files, capsys):
    code, out, err = run(
        capsys, "ptas", "--instance", files["instance"], "--dist", files["uniform"],
        "--eps", "1e400", "--mode", "float",
    )
    assert (code, out) == (2, "")
    assert err == "error: --eps: number '1e400' has no finite float value\n"


def test_bandit_pac_refuses_eta_without_float_value(files, capsys):
    # rational mode keeps 1e400 exact, but the elimination runs on float(eta)
    code, out, err = run(
        capsys, "bandit-pac", "--instance", files["instance"], "--dist", files["uniform"],
        "--eta", "1e400", "--delta", "0.1",
    )
    assert (code, out) == (2, "")
    assert err == "error: --eta: number '1e400' has no finite float value\n"


@pytest.mark.parametrize(
    "eta, eps, dimension",
    [
        # eps = (eta / 48)^2 lies below the float range; the dimension 1/eps
        # has 804 and 10,004 digits, past the int-to-str limit in the second
        ("1e-400", "4.34e-804", "2.3e+803"),
        ("1e-5000", "4.34e-10004", "2.3e+10003"),
    ],
)
def test_bandit_pac_guard_prints_exact_width(files, capsys, eta, eps, dimension):
    code, out, err = run(
        capsys, "bandit-pac", "--instance", files["instance"], "--dist", files["uniform"],
        "--eta", eta, "--delta", "0.1",
    )
    assert (code, out) == (3, "")
    assert err == (
        f"error: type grid too fine for exact candidate enumeration: eps={eps} "
        f"gives dimension {dimension} > 512; the candidate pool grows "
        "combinatorially in the grid size\n"
    )


def test_main_builds_one_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    first = run(capsys, "reduce-setcover", "--universe", "2", "--sets", "1,2")
    assert run(capsys, "reduce-setcover", "--universe", "2", "--sets", "1,2") == first
    assert first[0] == 0
    assert built.count("contractlab") == 1


def test_missing_argument_exit_2(files):
    with pytest.raises(SystemExit) as exc:
        main(["ptas", "--instance", files["instance"]])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# File output
# ---------------------------------------------------------------------------


def test_atomic_output_and_no_leftovers(files, capsys):
    target = files["dir"] / "out.json"
    code, out, _ = run(
        capsys,
        "solve-discrete",
        "--instance",
        files["instance"],
        "--dist",
        files["types"],
        "-o",
        str(target),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["value"] == "5/8"
    leftovers = [f for f in os.listdir(files["dir"]) if f.endswith(".part")]
    assert leftovers == []


@pytest.mark.parametrize(
    "target, reason",
    [("missing/out.json", "No such file or directory"), ("taken", "Is a directory")],
    ids=["missing-directory", "directory-target"],
)
def test_failed_output_write_exit_2(capsys, tmp_path, target, reason):
    # a usage error naming the output, and the temporary .part file removed
    (tmp_path / "taken").mkdir()
    path = tmp_path / target
    code, out, err = run(capsys, "selftest", "-o", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write output {path}: {reason}\n"
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".part")]


def test_rerun_byte_identical(files, capsys):
    digests = []
    for name in ("a.csv", "b.csv"):
        target = files["dir"] / name
        code, _, _ = run(
            capsys,
            "bandit-regret",
            "--instance",
            files["instance"],
            "--dist",
            files["uniform"],
            "-T",
            "64",
            "--seeds",
            "2",
            "-o",
            str(target),
        )
        assert code == 0
        digests.append(hashlib.sha256(target.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
