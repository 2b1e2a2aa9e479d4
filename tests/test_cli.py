"""Command-line interface: parsing, output shapes, exit codes, seeding."""

import json
import subprocess
import sys
from fractions import Fraction as F

import pytest

import awlab.cli
import awlab.identities
import awlab.scalars
from awlab.cli import InputError, main, parse_param_string
from awlab.laurent import LaurentPoly, combination
from awlab.polynomials import EigenSolveError
from awlab.scalars import beta_n, lambda_n, mu_n

P8_STR = "q=1/2,a=1/3,b=1/5,c=1/7,d=1/11"


def test_parse_param_string():
    values = parse_param_string(P8_STR)
    assert values == {"q": F(1, 2), "a": F(1, 3), "b": F(1, 5),
                      "c": F(1, 7), "d": F(1, 11)}
    # order does not matter and spaces are tolerated
    same = parse_param_string("d=1/11, c=1/7, b=1/5, a=1/3, q=1/2")
    assert same == values


@pytest.mark.parametrize("bad", [
    "q=1/2,a=1/3,b=1/5,c=1/7",           # missing d
    "q=1/2,a=1/3,b=1/5,c=1/7,d=1/11,q=1/3",  # duplicate q
    "q=1/2,a=1/3,b=1/5,c=1/7,e=1/11",    # unknown key
    "q=0.5,a=1/3,b=1/5,c=1/7,d=1/11",    # float
    "q",                                  # no separator
])
def test_parse_param_string_rejects(bad):
    with pytest.raises(InputError):
        parse_param_string(bad)


def test_gen_p0(capsys):
    rc = main(["gen", "P", "--n", "0", "--params", P8_STR])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "kind": "P",
        "n": 0,
        "params": {"q": "1/2", "a": "1/3", "b": "1/5", "c": "1/7",
                   "d": "1/11", "nmax": 0},
        "var": "z",
        "coeffs": {"0": "1"},
    }


def test_gen_e_negative_index(capsys):
    rc = main(["gen", "E", "--n", "-1", "--params", P8_STR])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "E"
    assert doc["n"] == -1
    assert doc["coeffs"] == {"-1": "1", "0": "-299/577"}


def test_gen_rejects_negative_p(capsys):
    rc = main(["gen", "P", "--n", "-2", "--params", P8_STR])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_gen_rejects_negative_p_before_certifying(capsys):
    # abcd = q fails G3; the index is wrong whatever the point
    rc = main(["gen", "P", "--n", "-2", "--params",
               "q=1/2,a=2,b=3,c=5,d=1/60"])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: the symmetric family P is indexed by n >= 0\n"


def test_gen_rejects_bad_params(capsys):
    rc = main(["gen", "P", "--n", "1", "--params", "q=1/2"])
    assert rc == 2
    assert "missing parameter" in capsys.readouterr().err


def test_gen_rejects_degenerate_point(capsys):
    rc = main(["gen", "P", "--n", "1",
               "--params", "q=1,a=1/3,b=1/5,c=1/7,d=1/11"])
    assert rc == 2
    assert "GenericityError(G1)" in capsys.readouterr().err


def test_table_lambda_text(capsys, p8):
    rc = main(["table", "lambda", "--nmax", "2", "--params", P8_STR])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "n  lambda",
        "0  0",
        "1  1154/1155",
        "2  2309/770",
    ]
    assert lambda_n(2, p8) == F(2309, 770)


def test_table_signed_quantities_cover_negative_indices(capsys, p8):
    rc = main(["table", "beta", "--nmax", "1", "--params", P8_STR])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("beta")
    assert [ln.split()[0] for ln in lines[1:]] == ["-1", "0", "1"]
    assert lines[2].split()[1] == "-215/577"
    assert lines[1].split()[1] == str(beta_n(-1, p8))


def test_table_json(capsys, p8):
    rc = main(["table", "mu", "--nmax", "2", "--params", P8_STR,
               "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["quantity"] == "mu"
    assert doc["params"]["nmax"] == 2
    assert [row["n"] for row in doc["rows"]] == [-2, -1, 0, 1, 2]
    for row in doc["rows"]:
        assert row["value"] == str(mu_n(row["n"], p8))


def test_verify_text_mode(capsys):
    rc = main(["verify", "--params", P8_STR, "--nmax", "2",
               "--trials", "2"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    passes = [ln for ln in out if ln.startswith("PASS  ")]
    skips = [ln for ln in out if ln.startswith("SKIP  ")]
    assert not any(ln.startswith("FAIL") for ln in out)
    skipped_ids = {ln.split()[1] for ln in skips}
    assert skipped_ids == {
        "three-term-recurrence", "raising-via-d", "lowering-via-d",
        "lowering-via-hecke", "control-alpha-recurrence",
        "control-swap-raising-via-d",
    }
    summary = out[-1]
    assert summary.endswith("(nmax=2, trials=2, seed=42)")
    assert summary.startswith(f"{len(passes)}/{len(passes)} identities passed")


def test_verify_json_mode(capsys):
    rc = main(["verify", "--params", P8_STR, "--nmax", "2",
               "--trials", "2", "--seed", "5", "--json"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    docs = [json.loads(ln) for ln in lines]
    assert all(d["passed"] for d in docs)
    assert all(d["seed"] == 5 for d in docs)
    assert {d["identity"] for d in docs} >= {"q-difference-eigen",
                                             "hecke-relations"}


def test_verify_fault_injection_fails(capsys):
    rc = main(["verify", "--params", P8_STR, "--nmax", "2",
               "--trials", "2", "--inject-fault", "lambda"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL  q-difference-eigen" in out
    assert "residual" in out


def test_verify_rejects_degenerate_point(capsys):
    rc = main(["verify", "--params", "q=1,a=1/3,b=1/5,c=1/7,d=1/11",
               "--nmax", "2"])
    assert rc == 2
    assert "GenericityError(G1)" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_trials_below_one(capsys, trials):
    # with no trials the randomized checks would pass without testing anything
    rc = main(["verify", "--params", P8_STR, "--nmax", "2",
               "--trials", trials])
    assert rc == 2
    captured = capsys.readouterr()
    assert "trials must be at least 1" in captured.err
    assert captured.out == ""


def test_internal_error_exits_3(capsys, monkeypatch):
    # a crash inside a construction must not look like a failed identity
    # (exit 1) or like bad input (exit 2)
    def broken(n, p):
        raise ZeroDivisionError("Fraction(0, 0)")

    monkeypatch.setattr(awlab.cli, "askey_wilson_P", broken)
    rc = main(["gen", "P", "--n", "2", "--params", P8_STR])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "internal error: ZeroDivisionError: Fraction(0, 0)\n"


def test_not_symmetric_error_is_internal(capsys, monkeypatch):
    # NotSymmetricError is a ValueError, but no command feeds user input to
    # D, so it is a crash (exit 3), never bad input (exit 2)
    real = awlab.identities.askey_wilson_P

    def asymmetric_p2(n, p):
        pn = real(n, p)
        return combination(((1, pn), (1, LaurentPoly.monomial(1)))) \
            if n == 2 else pn

    monkeypatch.setattr(awlab.identities, "askey_wilson_P", asymmetric_p2)
    rc = main(["verify", "--nmax", "3", "--params", P8_STR])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == ("internal error: NotSymmetricError: "
                   "D is defined on symmetric polynomials only\n")


def test_internal_value_error_exits_3(capsys, monkeypatch):
    # a ValueError raised inside the program is a crash, not bad input:
    # only an InputError (GenericityError and HorizonError are ones) exits 2
    def broken(n, p):
        raise ValueError("internal bug")

    monkeypatch.setattr(awlab.identities, "beta_n", broken)
    rc = main(["verify", "--nmax", "3", "--params", P8_STR])
    assert rc == 3
    assert capsys.readouterr().err == "internal error: ValueError: internal bug\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--nmax", "-1", "--params", P8_STR],
    ["verify", "--nmax", "-1", "--random"],
    ["table", "alpha", "--nmax", "-1", "--params", P8_STR],
    ["random-params", "--nmax", "-1"],
], ids=["verify", "verify-random", "table", "random-params"])
def test_negative_nmax_is_input_error(capsys, argv):
    rc = main(argv)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_max must be nonnegative\n"


@pytest.mark.parametrize("argv", [
    ["random-params", "--nmax", "3"],
    ["verify", "--random", "--nmax", "3"],
], ids=["random-params", "verify-random"])
def test_giving_up_on_a_draw_is_input_error(capsys, monkeypatch, argv):
    # the library's InputError is the one the CLI maps to exit 2
    assert InputError is awlab.scalars.InputError

    def never_generic(*args):
        raise awlab.scalars.GenericityError("G1", "never certified")

    monkeypatch.setattr(awlab.scalars, "check_genericity", never_generic)
    rc = main(argv)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: could not draw a certified parameter set in 1000 tries\n"


@pytest.mark.parametrize("window", ["0", "-1"])
def test_verify_rejects_degree_window_below_one(capsys, monkeypatch, window):
    # rejected before any check runs, not by the first asymmetric draw
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(awlab.identities, "askey_wilson_P", no_check)
    rc = main(["verify", "--nmax", "3", "--degree-window", window,
               "--params", P8_STR])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: degree_window must be at least 1, got {window}\n"


@pytest.mark.parametrize("d", ["1/60", "1/120"])
def test_abcd_at_q_and_q_squared_is_rejected(capsys, d):
    # abcd = q and abcd = q^2: alpha_0 is 0/0 there, and at abcd = q the
    # n = 0 projection and Hecke raising multiples vanish; G3 covers both
    params = f"q=1/2,a=2,b=3,c=5,d={d}"
    for argv in (["table", "alpha", "--nmax", "3", "--params", params],
                 ["verify", "--nmax", "3", "--trials", "1", "--params", params]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("GenericityError(G3)")


def test_eigen_solve_error_exits_3(capsys, monkeypatch):
    def broken(n, p):
        raise EigenSolveError("mu_1 repeats on the diagonal")

    monkeypatch.setattr(awlab.cli, "nonsymmetric_E", broken)
    rc = main(["gen", "E", "--n", "1", "--params", P8_STR])
    assert rc == 3
    assert capsys.readouterr().err == (
        "internal error: EigenSolveError: mu_1 repeats on the diagonal\n")


def test_verify_requires_exactly_one_source(capsys):
    rc = main(["verify", "--params", P8_STR, "--random"])
    assert rc == 2
    assert "exactly one" in capsys.readouterr().err
    rc = main(["verify"])
    assert rc == 2
    assert "exactly one" in capsys.readouterr().err


def test_verify_random_point(capsys):
    rc = main(["verify", "--random", "--nmax", "2", "--trials", "2",
               "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "identities passed" in out.splitlines()[-1]


def test_random_params_deterministic(capsys):
    rc = main(["random-params", "--seed", "7", "--trials", "2",
               "--nmax", "3"])
    assert rc == 0
    first = capsys.readouterr().out
    rc = main(["random-params", "--seed", "7", "--trials", "2",
               "--nmax", "3"])
    assert rc == 0
    assert capsys.readouterr().out == first
    docs = [json.loads(ln) for ln in first.splitlines()]
    assert len(docs) == 2
    assert all(d["nmax"] == 3 for d in docs)


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_random_params_rejects_count_below_one(capsys, trials):
    # an empty draw must not look like success
    rc = main(["random-params", "--trials", trials])
    assert rc == 2
    captured = capsys.readouterr()
    assert "trials must be at least 1" in captured.err
    assert captured.out == ""


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("AWLAB_SEED", "7")
    rc = main(["random-params", "--seed", "1", "--trials", "2",
               "--nmax", "3"])
    assert rc == 0
    with_env = capsys.readouterr().out
    monkeypatch.delenv("AWLAB_SEED")
    rc = main(["random-params", "--seed", "7", "--trials", "2",
               "--nmax", "3"])
    assert rc == 0
    assert capsys.readouterr().out == with_env


def test_env_seed_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("AWLAB_SEED", "pi")
    rc = main(["random-params"])
    assert rc == 2
    assert "AWLAB_SEED" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "awlab", "gen", "P", "--n", "1",
         "--params", P8_STR],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["coeffs"] == {"-1": "1", "0": "-430/577", "1": "1"}


def test_closed_stdout_keeps_the_verdict(tmp_path):
    # the reader takes one line and closes the pipe; the output, about
    # 300 kB of failing reports, outgrows the pipe and the writer's buffer,
    # so the writer meets the closed end whatever its buffering
    err_path = tmp_path / "stderr"
    with err_path.open("wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "awlab", "verify", "--random", "--seed", "2",
             "--nmax", "16", "--json", "--inject-fault", "lambda"],
            stdout=subprocess.PIPE, stderr=err,
        )
        assert json.loads(proc.stdout.readline())["identity"]
        proc.stdout.close()
        code = proc.wait(timeout=60)
    assert err_path.read_bytes() == b""
    assert code == 1  # the lambda fault's verdict, not an internal error


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # both weigh on start-up time and memory, and awlab needs neither
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, awlab.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
