"""Verdicts and witnesses of the window checks under broken operators.

Each mutation swaps one of the operators that awlab.verify calls by its
module-level name for a wrong one, and the three checks that prove their
relations on a basis of the degree window run at the p8 point with two
guard trials.  tests/data/trial_check_mutations.json holds, per mutation
and check, the `passed` value and the witness `lhs - rhs`.  The verdicts
of the whole-operator mutations are the ones the checks gave when they
sampled 25 random inputs; the witnesses were re-recorded when the inputs
became the basis and the guard's draws.

Two kinds of mutation are pinned:

* "<name>+z" adds z to every image of one operator, and "T1*2" doubles
  every image of T1;
* "call<k>+z" adds z to the k-th operator call only, counting calls to
  all six operators together, in the order of CALLS_PER_TRIAL.  Each
  sub-identity and each operator's guard is then the first to fail under
  some k, so every witness, including the rearranged ones, is compared.
  Two parts of hecke-relations never fail first: the certificate, which
  adding z to one image cannot break (it has its own test below), and
  the symmetrizer, which the quadratic relation, the symmetric criterion
  and the certificate imply while T1 keeps the window.

Two more kinds are checked by what they must do rather than pinned: an
operator that is exact on the basis but not linear, or an inverse t_i
T_i^{-1} that is exact on the images T_i z^k only, which only the guard
can catch, and a T1 that fixes z - 1/z, which only the certificate can.
"""

import json
from pathlib import Path

import pytest

from awlab import verify
from awlab.identities import _Z
from awlab.laurent import LaurentPoly, combination
from awlab.verify import (
    check_bridge_identity,
    check_factorization,
    check_hecke_relations,
)

OPERATORS = ("apply_T0", "apply_T1", "apply_t0_T0_inv", "apply_t1_T1_inv",
             "apply_D", "apply_D_prime")

CHECKS = {
    "hecke-relations": check_hecke_relations,
    "factorization": check_factorization,
    "bridge-symmetric": check_bridge_identity,
}

# the operator calls of each check at trials=1, in the order they are made:
# the basis proof's, then the one guard trial's
CALLS_PER_TRIAL = {
    "hecke-relations": (
        # T1 z^j and T1 z^-j per j, for the symmetric criterion
        ["T1"] * 13
        + ["T0", "t1_T1_inv"] + ["T0"] * 12 + ["t0_T0_inv", "T0", "T1"]
        + ["t1_T1_inv", "t0_T0_inv"] * 12 + ["T1"]  # z^-5 .. z^6
        + ["T1", "T0", "t1_T1_inv", "t0_T0_inv"]),
    "factorization": ["D_prime"] * 26 + ["D"] * 7 + ["D_prime", "D_prime", "D"],
    "bridge-symmetric": ["D_prime", "D", "D"] + ["D_prime", "D"] * 7,
}

FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "trial_check_mutations.json").read_text())


def _outcome(check, p):
    report = check(p, trials=2)
    witness = report.residual_witness
    return {"passed": report.passed,
            "witness": None if witness is None else witness.to_json_dict()}


def _plus_z(image):
    return combination(((1, image), (1, _Z)))


def _whole_operator_mutations():
    yield "none", {}
    for name in OPERATORS:
        op = getattr(verify, name)
        yield f"{name[6:]}+z", {name: lambda f, p, *a, op=op, **kw:
                                _plus_z(op(f, p, *a, **kw))}
    op = verify.apply_T1
    yield "T1*2", {"apply_T1": lambda f, p: op(f, p).scale(2)}


def _one_call_mutation(k, log=None):
    """Every operator wrapped; the k-th call made through any of them gets
    z.  Each call's operator is appended to log, if one is given."""
    log = [] if log is None else log

    def wrap(name, op):
        def mutated(f, p, *args, **kwargs):
            log.append(name[6:])
            image = op(f, p, *args, **kwargs)
            return _plus_z(image) if len(log) == k else image
        return mutated

    return {name: wrap(name, getattr(verify, name)) for name in OPERATORS}


def _cases():
    for mutation, patches in _whole_operator_mutations():
        for check_id in CHECKS:
            yield check_id, mutation, patches
    for check_id, calls in CALLS_PER_TRIAL.items():
        for k in range(1, len(calls) + 1):
            yield check_id, f"call{k}+z", _one_call_mutation(k)


@pytest.mark.parametrize(
    "check_id, mutation, patches",
    [pytest.param(c, m, patches, id=f"{c}-{m}") for c, m, patches in _cases()])
def test_verdict_and_witness_are_pinned(check_id, mutation, patches, p8,
                                        monkeypatch):
    for name, mutated in patches.items():
        monkeypatch.setattr(verify, name, mutated)
    assert _outcome(CHECKS[check_id], p8) == FIXTURE[mutation][check_id]


def test_every_operator_mutation_is_caught():
    """Each whole-operator mutation fails the checks that call it."""
    caught = {mutation: sorted(c for c, out in FIXTURE[mutation].items()
                               if not out["passed"])
              for mutation, _ in _whole_operator_mutations()}
    assert caught == {
        "none": [],
        "T0+z": ["hecke-relations"],
        "T1+z": ["hecke-relations"],
        "t0_T0_inv+z": ["hecke-relations"],
        "t1_T1_inv+z": ["hecke-relations"],
        "D+z": ["bridge-symmetric", "factorization"],
        "D_prime+z": ["bridge-symmetric", "factorization"],
        "T1*2": ["hecke-relations"],
    }


@pytest.mark.parametrize("check_id", CHECKS)
def test_calls_per_trial(check_id, p8, monkeypatch):
    log = []
    for name, wrapped in _one_call_mutation(0, log).items():
        monkeypatch.setattr(verify, name, wrapped)
    assert CHECKS[check_id](p8, trials=1).passed
    assert log == CALLS_PER_TRIAL[check_id]


def _exact_on_integer_inputs(op):
    """op, plus z on every input with a non-integer coefficient."""
    def mutated(f, p, *args, **kwargs):
        image = op(f, p, *args, **kwargs)
        if all(c.denominator == 1 for _, c in f.items()):
            return image
        return _plus_z(image)
    return mutated


@pytest.mark.parametrize("name, check_ids", [
    ("apply_T1", ["hecke-relations"]),
    ("apply_D", ["factorization", "bridge-symmetric"]),
])
def test_guard_catches_an_operator_exact_on_the_basis(name, check_ids, p8,
                                                      monkeypatch):
    # the basis proof feeds these operators only integer inputs, so the
    # failure comes from the guard: op(f) + z against the combination of
    # the exact basis images leaves exactly z
    monkeypatch.setattr(verify, name,
                        _exact_on_integer_inputs(getattr(verify, name)))
    for check_id in check_ids:
        report = CHECKS[check_id](p8, trials=2)
        assert not report.passed
        assert report.residual_witness == _Z


@pytest.mark.parametrize("inverse, forward", [
    ("apply_t1_T1_inv", "apply_T1"),
    ("apply_t0_T0_inv", "apply_T0"),
])
def test_guard_catches_an_inverse_exact_on_the_images(inverse, forward, p8,
                                                      monkeypatch):
    # the basis proof runs t T^{-1} only on the images T z^k, so an inverse
    # that is exact there and adds z elsewhere is caught only by the guard's
    # t T^{-1} T f = t f on a random f
    op, images = getattr(verify, inverse), {
        getattr(verify, forward)(LaurentPoly.monomial(k), p8) for k in range(-6, 7)}

    def exact_on_images(f, p):
        return op(f, p) if f in images else _plus_z(op(f, p))

    monkeypatch.setattr(verify, inverse, exact_on_images)
    report = check_hecke_relations(p8, trials=2)
    assert not report.passed
    assert report.residual_witness == _Z


def test_certificate_catches_a_T1_that_fixes_z_minus_inverse(p8, monkeypatch):
    op = verify.apply_T1
    a = LaurentPoly({1: 1, -1: -1})
    u = combination(((1, op(a, p8)), (-p8.t1, a)))  # (T1 - t1)(z - 1/z), nonzero

    def fixes_a(f, p):
        # subtract the share of (T1 - t1) that f's z - 1/z part gets;
        # still linear, and equal to T1 on symmetric f
        return combination(((1, op(f, p)), ((f.coeff(-1) - f.coeff(1)) / 2, u)))

    assert fixes_a(a, p8) == a.scale(p8.t1)
    monkeypatch.setattr(verify, "apply_T1", fixes_a)
    report = check_hecke_relations(p8, trials=2)
    assert not report.passed
    assert report.residual_witness == a
