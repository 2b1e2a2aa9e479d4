"""Verdicts and witnesses of the random-input checks under broken operators.

Each mutation swaps one of the operators that awlab.verify calls by its
module-level name for a wrong one, and the three random-input checks run
at the p8 point with two trials.  tests/data/trial_check_mutations.json
holds, per mutation and check, the `passed` value and the witness
`lhs - rhs` as recorded from the checks while they still built every
residual and tested it for zero; they now compare canonical forms and
build the witness only on failure, and must report the same thing.

Two kinds of mutation are pinned:

* "<name>+z" adds z to every image of one operator, and "T1*2" doubles
  every image of T1;
* "call<k>+z" adds z to the k-th operator call of the first trial only,
  counting calls to all six operators together.  Each sub-identity of a
  check is then the first to fail under some k, so every witness,
  including the rearranged ones, is compared.
"""

import json
from pathlib import Path

import pytest

from awlab import verify
from awlab.identities import _Z
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

# the operator calls of one trial of each check, in the order they are made
CALLS_PER_TRIAL = {
    "hecke-relations": ["T1", "T0", "T1", "t1_T1_inv", "T0", "t0_T0_inv",
                        "t0_T0_inv", "T0", "T1", "T1", "t1_T1_inv", "T1",
                        "T1"],
    "factorization": ["D_prime", "D_prime", "D_prime", "D"],
    "bridge-symmetric": ["D_prime", "D", "D"],
}

FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "trial_check_mutations.json").read_text())


def _outcome(check, p):
    report = check(p, trials=2)
    witness = report.residual_witness
    return {"passed": report.passed,
            "witness": None if witness is None else witness.to_json_dict()}


def _whole_operator_mutations():
    yield "none", {}
    for name in OPERATORS:
        op = getattr(verify, name)
        yield f"{name[6:]}+z", {name: lambda f, p, *a, op=op, **kw:
                                op(f, p, *a, **kw) + _Z}
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
            return image + _Z if len(log) == k else image
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
