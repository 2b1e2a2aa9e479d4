"""Scalar layer: parsing, genericity certification, eigenvalue families."""

import copy
import pickle
import random
from fractions import Fraction as F

import fraction_scalars
import pytest

from awlab import scalars
from awlab.scalars import (
    GenericityError,
    HorizonError,
    InputError,
    ParamSet,
    alpha_n,
    beta_n,
    c_n,
    check_genericity,
    e1,
    e3,
    format_scalar,
    kappa_n,
    lambda_n,
    mu_n,
    parse_scalar,
    random_param_sets,
    require_count,
)


NEGATIVE_Q = check_genericity(F(-2, 3), F(3, 5), F(-7, 2), F(5, 11), F(2, 13), 6)


def param_set_from_json(doc: dict) -> ParamSet:
    """Rebuild a certified ParamSet from its JSON form (re-runs the checks)."""
    vals = [parse_scalar(doc[k]) for k in ("q", "a", "b", "c", "d")]
    return check_genericity(*vals, int(doc["nmax"]))


def test_parse_scalar_accepts_canonical_forms():
    assert parse_scalar("2/3") == F(2, 3)
    assert parse_scalar("-7/11") == F(-7, 11)
    assert parse_scalar("5") == F(5)
    assert parse_scalar("-3") == F(-3)
    assert parse_scalar(" 4/6 ") == F(2, 3)


@pytest.mark.parametrize("bad", ["0.5", "1e3", "", "1/0", "1/-2", "+2",
                                 "2/ 3", "one", "1//2", "1/2/3"])
def test_parse_scalar_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_format_scalar_is_canonical():
    assert format_scalar(F(4, 6)) == "2/3"
    assert format_scalar(F(-10, 5)) == "-2"
    assert format_scalar(7) == "7"
    # parse and format are inverse on canonical strings
    for s in ["2/3", "-7/11", "0", "12"]:
        assert format_scalar(parse_scalar(s)) == s


def test_param_set_derived_hecke_scalars(p8):
    assert p8.t0 == F(-2, 77)          # -cd/q
    assert p8.t1 == F(-1, 15)          # -ab
    assert p8.abcd == F(1, 1155)
    assert p8.n_max == 8


def test_param_set_is_frozen(p8):
    with pytest.raises(AttributeError):
        p8.q = F(1, 3)


def test_param_set_value_semantics(p8):
    assert repr(p8) == (
        "ParamSet(q=Fraction(1, 2), a=Fraction(1, 3), b=Fraction(1, 5), "
        "c=Fraction(1, 7), d=Fraction(1, 11), n_max=8)")
    same = ParamSet(F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11), 8)
    assert same == p8 and hash(same) == hash(p8)
    assert ParamSet(F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11), 9) != p8
    assert p8 != (p8.q, p8.a, p8.b, p8.c, p8.d, p8.n_max)
    with pytest.raises(AttributeError):
        p8.t0 = F(0)
    with pytest.raises(AttributeError):
        del p8.n_max
    assert pickle.loads(pickle.dumps(p8)) == p8
    assert copy.copy(p8) == p8


def test_param_set_json_round_trip(p8):
    doc = p8.as_json_dict()
    assert doc == {"q": "1/2", "a": "1/3", "b": "1/5", "c": "1/7",
                   "d": "1/11", "nmax": 8}
    assert param_set_from_json(doc) == p8


def test_param_set_from_json_recertifies():
    doc = {"q": "1", "a": "1/3", "b": "1/5", "c": "1/7", "d": "1/11",
           "nmax": 2}
    with pytest.raises(GenericityError):
        param_set_from_json(doc)


def test_require_horizon(p8):
    p8.require_horizon(8)
    p8.require_horizon(-8)
    with pytest.raises(HorizonError):
        p8.require_horizon(9)
    with pytest.raises(HorizonError):
        p8.require_horizon(-9)


def test_genericity_g1_bad_q():
    for q in (F(0), F(1), F(-1)):
        with pytest.raises(GenericityError) as err:
            check_genericity(q, F(1, 3), F(1, 5), F(1, 7), F(1, 11), 4)
        assert err.value.condition == "G1"


def test_genericity_g2_zero_parameter():
    with pytest.raises(GenericityError) as err:
        check_genericity(F(1, 2), F(1, 3), F(0), F(1, 7), F(1, 11), 4)
    assert err.value.condition == "G2"


def test_genericity_g3_product_resonance():
    # abcd = 1 trips G3 at j = 0
    with pytest.raises(GenericityError) as err:
        check_genericity(F(1, 2), F(2), F(1, 2), F(3), F(1, 3), 4)
    assert err.value.condition == "G3"
    assert "q^0" in err.value.detail
    # abcd * q = 1 trips G3 at j = 1
    with pytest.raises(GenericityError) as err:
        check_genericity(F(1, 2), F(2), F(1, 2), F(2), F(1), 4)
    assert err.value.condition == "G3"
    assert "q^1" in err.value.detail


def test_genericity_g4_pair_resonance():
    # ab = 1 while abcd stays away from q powers
    with pytest.raises(GenericityError) as err:
        check_genericity(F(1, 2), F(2), F(1, 2), F(1, 3), F(1, 5), 4)
    assert err.value.condition == "G4"
    # bc * q = 1
    with pytest.raises(GenericityError) as err:
        check_genericity(F(1, 2), F(1, 5), F(3), F(2, 3), F(1, 7), 4)
    assert err.value.condition == "G4"
    assert "bc" in err.value.detail


def test_genericity_first_violation_wins():
    # both G1 and G2 violated; G1 is reported
    with pytest.raises(GenericityError) as err:
        check_genericity(F(1), F(0), F(1, 5), F(1, 7), F(1, 11), 4)
    assert err.value.condition == "G1"


def test_genericity_rejects_floats():
    with pytest.raises(TypeError):
        check_genericity(0.5, F(1, 3), F(1, 5), F(1, 7), F(1, 11), 4)


def test_genericity_rejects_negative_horizon():
    with pytest.raises(InputError, match="n_max must be nonnegative"):
        check_genericity(F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11), -1)


@pytest.mark.parametrize("n_max", [2.9, 3.0, "3", True])
def test_genericity_rejects_a_non_integer_horizon(n_max):
    # truncating 2.9 to 2, or reading "3" or True as 3 or 1, would certify
    # a horizon the caller did not ask for
    with pytest.raises(InputError, match="n_max must be an integer"):
        check_genericity(F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11), n_max)


def _boundary_points():
    """Seeded points on and near abcd q^j = 1 and ab q^j = 1, for j from -4
    to 2 n_max + 5, with q negative and |q| > 1 among them."""
    rng = random.Random(24)
    for q in (F(1, 2), F(-2, 3), F(3), F(-5, 2), F(17, 19)):
        for n_max in range(4):
            for j in range(-4, 2 * n_max + 6):
                a, b, c = (F(rng.choice((-1, 1)) * rng.randint(1, 9),
                             rng.randint(1, 9)) for _ in range(3))
                # on the boundary, on its mirror in sign, and next to it
                for x in (q**-j, -(q**-j), F(10, 11) * q**-j):
                    yield q, a, b, c, x / (a * b * c), n_max  # abcd = x
                    yield q, a, x / a, b, c, n_max  # ab = x


def test_g1_to_g4_keep_the_eigenvalues_apart():
    # G5 and G6 follow from G1..G4: each point either fails one of them or
    # has pairwise distinct mu_m (|m| <= n_max + 1) and lambda_m
    # (0 <= m <= n_max + 1), read from the Fraction oracle
    def collide(p):
        mus = [fraction_scalars.mu_n(m, p)
               for m in range(-p.n_max - 1, p.n_max + 2)]
        lams = [fraction_scalars.lambda_n(m, p) for m in range(p.n_max + 2)]
        return len(set(mus)) < len(mus) or len(set(lams)) < len(lams)

    certified = collisions = 0
    for args in _boundary_points():
        try:
            p = check_genericity(*args)
        except GenericityError as err:
            assert err.condition in ("G1", "G2", "G3", "G4"), args
            collisions += collide(ParamSet(*args))
            continue
        certified += 1
        assert not collide(p), args
    # both outcomes occur, and the oracle sees collisions the search dropped
    assert certified > 100 and collisions > 100, (certified, collisions)


def _oracle_points(seeded_points):
    yield from seeded_points
    yield check_genericity(F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11), 8)
    yield NEGATIVE_Q
    yield check_genericity(F(17, 19), F(17, 29), F(-29, 31), F(-17, 29),
                           F(-29, 31), 24)


@pytest.mark.parametrize("name, indices", [
    ("alpha_n", lambda N: range(N + 1)),
    ("c_n", lambda N: range(1, N + 1)),
    ("beta_n", lambda N: range(-N, N + 1)),
    ("kappa_n", lambda N: range(-N, N + 1)),
    ("lambda_n", lambda N: range(-N - 1, N + 2)),
    ("mu_n", lambda N: range(-N - 1, N + 2)),
])
def test_closed_forms_match_the_fraction_oracle(name, indices, seeded_points):
    # up to the horizon edge, at seeded points, p8, a negative q and a
    # point with 5-bit primes at horizon 24
    for p in _oracle_points(seeded_points):
        for n in indices(p.n_max):
            assert getattr(scalars, name)(n, p) == \
                getattr(fraction_scalars, name)(n, p), (name, n, p)


@pytest.mark.parametrize("family", [alpha_n, c_n, beta_n, kappa_n])
def test_closed_forms_stop_at_the_horizon(family):
    with pytest.raises(HorizonError):
        family(NEGATIVE_Q.n_max + 1, NEGATIVE_Q)


def test_lambda_values(p8):
    assert lambda_n(0, p8) == 0
    assert lambda_n(1, p8) == F(1154, 1155)
    assert lambda_n(2, p8) == F(2309, 770)
    # lambda depends on |n| only
    for n in range(1, 5):
        assert lambda_n(-n, p8) == lambda_n(n, p8)


def test_mu_values(p8):
    assert mu_n(-2, p8) == 4
    assert mu_n(-1, p8) == 2
    assert mu_n(0, p8) == F(2, 1155)
    assert mu_n(1, p8) == F(1, 1155)
    assert mu_n(2, p8) == F(1, 2310)


def test_alpha_zero_value(p8):
    # alpha_0 is minus the constant coefficient of P_1
    assert alpha_n(0, p8) == F(430, 577)


def test_alpha_rejects_negative_index(p8):
    with pytest.raises(ValueError):
        alpha_n(-1, p8)


def test_alpha_is_symmetric_in_parameters(p8):
    perms = [
        (p8.b, p8.a, p8.c, p8.d),
        (p8.c, p8.b, p8.a, p8.d),
        (p8.d, p8.b, p8.c, p8.a),
        (p8.d, p8.c, p8.b, p8.a),
    ]
    for a, b, c, d in perms:
        alt = check_genericity(p8.q, a, b, c, d, p8.n_max)
        for n in range(5):
            assert alpha_n(n, alt) == alpha_n(n, p8)


def test_c_n_index_validation(p8):
    with pytest.raises(ValueError):
        c_n(0, p8)
    with pytest.raises(HorizonError):
        c_n(9, p8)
    assert all(c_n(n, p8) != 0 for n in range(1, 9))


def test_elementary_symmetric_functions(p8):
    assert e1(p8) == F(1, 3) + F(1, 5) + F(1, 7) + F(1, 11)
    third = (F(1, 3) * F(1, 5) * F(1, 7) + F(1, 3) * F(1, 5) * F(1, 11)
             + F(1, 3) * F(1, 7) * F(1, 11) + F(1, 5) * F(1, 7) * F(1, 11))
    assert e3(p8) == third


def test_beta_zero_value(p8):
    # beta_0 = (q - 1)(e1 - e3) / (1 - abcd), worked out by hand
    expected = (p8.q - 1) * (e1(p8) - e3(p8)) / (1 - p8.abcd)
    assert expected == F(-215, 577)
    assert beta_n(0, p8) == expected


def test_beta_defined_on_signed_range(p8):
    for n in range(-8, 9):
        beta_n(n, p8)  # must not raise
    with pytest.raises(HorizonError):
        beta_n(9, p8)
    with pytest.raises(HorizonError):
        beta_n(-9, p8)


def test_kappa_one_value(p8):
    # hand evaluation: mu_0 = 2/1155, c+d = 18/77, t0 = -2/77,
    # a+b = 8/15, mu_{-1} = 2
    num = F(2, 1155) * F(18, 77) + F(-2, 77) * F(8, 15)
    den = F(2, 1155) - 2
    assert num / den == F(299, 44429)
    assert kappa_n(1, p8) == F(299, 44429)
    with pytest.raises(HorizonError):
        kappa_n(10, p8)


def test_random_param_sets_deterministic():
    first = random_param_sets(42, 3, 5)
    second = random_param_sets(42, 3, 5)
    assert first == second
    assert len(first) == 3
    # a different seed gives a different draw
    assert random_param_sets(7, 3, 5) != first


@pytest.mark.parametrize("trials", [0, -2])
def test_random_param_sets_rejects_count_below_one(trials):
    with pytest.raises(InputError, match="trials must be at least 1"):
        random_param_sets(42, trials, 5)


@pytest.mark.parametrize("trials", [True, 2.5, "3", None])
def test_random_param_sets_takes_an_integer_count(trials):
    with pytest.raises(InputError, match="trials must be an integer"):
        random_param_sets(42, trials, 5)


class _Index:
    def __index__(self):
        return 4


@pytest.mark.parametrize("value, least, message", [
    (True, 0, "n must be an integer, got True"),
    (False, 0, "n must be an integer, got False"),
    (2.0, 0, "n must be an integer, got 2.0"),
    ("3", 1, "n must be an integer, got '3'"),
    (F(3), 1, "n must be an integer, got Fraction(3, 1)"),
    (-1, 0, "n must be nonnegative"),
    (0, 1, "n must be at least 1, got 0"),
])
def test_require_count_is_one_rule(value, least, message):
    with pytest.raises(InputError) as err:
        require_count("n", value, least)
    assert str(err.value) == message


def test_require_count_returns_an_int():
    for value in (3, _Index()):
        count = require_count("n", value, 1)
        assert type(count) is int and count in (3, 4)


def test_genericity_and_horizon_errors_are_input_errors():
    assert issubclass(GenericityError, InputError)
    assert issubclass(HorizonError, InputError)
    assert issubclass(InputError, ValueError)


def test_random_param_sets_give_up_with_input_error(monkeypatch):
    def never_generic(*args):
        raise GenericityError("G1", "never certified")

    monkeypatch.setattr(scalars, "check_genericity", never_generic)
    with pytest.raises(InputError, match="could not draw a certified "
                                         "parameter set in 1000 tries"):
        random_param_sets(42, 1, 5)


def test_random_param_sets_are_certified():
    for p in random_param_sets(20250819, 4, 6):
        assert 0 < abs(p.q) < 1
        assert p.n_max == 6
        # re-certification must succeed on the same values
        again = check_genericity(p.q, p.a, p.b, p.c, p.d, 6)
        assert again == p
        for v in (p.a, p.b, p.c, p.d):
            assert v != 0
            assert abs(v.numerator) <= 64 and v.denominator <= 64
