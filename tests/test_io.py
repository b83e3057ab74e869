import pytest

from stellar import (
    Complex,
    ParseError,
    fold_structure,
    lens_structure,
    standard_sphere,
)
from stellar.io import (
    complex_to_json,
    dumps,
    equivalence_to_json,
    loads,
    parse_complex,
    parse_equivalence,
    parse_structure,
    structure_to_json,
)


def test_complex_round_trip():
    for k in (Complex(), standard_sphere(1), standard_sphere(3)):
        assert parse_complex(loads(dumps(complex_to_json(k)))) == k


def test_parse_complex_rejects_garbage():
    with pytest.raises(ParseError):
        parse_complex({"generators": [[1, 1]]})
    with pytest.raises(ParseError):
        parse_complex({"generators": "nope"})
    with pytest.raises(ParseError):
        parse_complex([1, 2, 3])
    with pytest.raises(ParseError):
        parse_complex({"generators": [[0]]})


def test_equivalence_round_trip():
    eq = lens_structure(5, 2).equivalence
    again = parse_equivalence(loads(dumps(equivalence_to_json(eq))))
    assert again == eq


def test_structure_round_trip():
    for s in (fold_structure(4), lens_structure(3, 1)):
        data = loads(dumps(structure_to_json(s)))
        again = parse_structure(data)
        assert again == s
        assert data["closed"] is True


def test_structure_closed_flag_is_verified():
    s = fold_structure(4)
    data = structure_to_json(s)
    data["closed"] = False
    with pytest.raises(ParseError):
        parse_structure(data)
    # the flag is a JSON boolean: bool() would read "false" as true and so
    # accept it on this closed structure
    assert s.is_closed
    for flag in ("false", "true", 1, 0, None):
        data["closed"] = flag
        with pytest.raises(ParseError, match='"closed" must be true or false'):
            parse_structure(data)


def test_loads_reports_json_errors():
    with pytest.raises(ParseError):
        loads("{not json")


def test_dumps_is_deterministic():
    s = lens_structure(3, 1)
    assert dumps(structure_to_json(s)) == dumps(structure_to_json(s))
