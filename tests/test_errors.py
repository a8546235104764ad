"""The one form of a refusal: a library error keeps the names of the fields
it refuses apart from its text, and a caller prints them in its own terms."""

import pytest

from bakerlab.errors import BakerlabError, CapacityError, DomainError, _in_range, _refusal, _refuse, _require


def test_a_refusal_prints_its_field_by_name_or_in_a_callers_terms():
    with pytest.raises(DomainError) as refused:
        _refuse("n_ens", 0, _in_range(1))
    assert refused.value.fields == ("n_ens",)
    assert str(refused.value) == "n_ens must be >= 1, got 0"
    assert refused.value.named(lambda field: "--" + field.replace("_", "-")) == "--n-ens must be >= 1, got 0"


def test_each_field_is_kept_once_in_the_order_of_its_first_placeholder():
    refusal = _refusal("requires {ell} 0.25 and {q} 0, got {ell} 0.3 and {q} 0.0", CapacityError)
    assert isinstance(refusal, CapacityError) and refusal.fields == ("ell", "q")
    assert refusal.named(str.upper) == "requires ELL 0.25 and Q 0, got ELL 0.3 and Q 0.0"


@pytest.mark.parametrize("text", ["--config a{n_ens}b.cfg: No such file or directory", "--sweep: '{'", "{}", "}{0}"])
def test_a_text_that_names_no_field_is_never_read_as_a_template(text):
    error = BakerlabError(text)
    assert error.fields == ()
    assert str(error) == error.named(str.upper) == text


def test_require_refuses_the_first_set_field_that_its_claim_refuses():
    claims = dict(a=_in_range(1), b=_in_range(1), c=_in_range(1))
    with pytest.raises(DomainError, match=r"^b must be >= 1, got 0$"):
        _require({"a": 1, "b": 0, "c": 0}, **claims)
    _require({"a": None, "b": 2}, **claims)  # an unset field is not asked
