"""Property tests of the partition text format (needs ``hypothesis``)."""

from hypothesis import given
from hypothesis import strategies as st

from upkit.partitions import Partition


@given(st.lists(st.integers(min_value=0, max_value=12), max_size=12))
def test_text_roundtrip_property(parts):
    lam = Partition(parts)
    assert Partition.from_text(lam.to_text()) == lam


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=9),
            st.integers(min_value=-3, max_value=6),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_exponent_parse_property(tokens):
    # parses exactly when every exponent is positive and every base is not
    # negative, and then to a partition of size sum(base * exp)
    text = ",".join(f"{base}^{exp}" for base, exp in tokens)
    valid = all(exp > 0 and base >= 0 for base, exp in tokens)
    try:
        lam = Partition.from_text(text)
    except ValueError:
        assert not valid
    else:
        assert valid
        assert lam.size == sum(base * exp for base, exp in tokens)
