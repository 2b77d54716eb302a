"""Property tests of the partition and character text formats (needs
``hypothesis``)."""

from hypothesis import given
from hypothesis import strategies as st

from upkit.components import CharFn
from upkit.partitions import GroupType, Partition, enumerate_classes

CLASSES = [cp for N in range(1, 15) for cp in enumerate_classes(GroupType(1 if N % 2 else -1, N))]


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


@given(st.data())
def test_charfn_text_roundtrip_property(data):
    # the sign form to_text writes, and the set form {a,b}, both read back
    cp = data.draw(st.sampled_from(CLASSES))
    subset = data.draw(st.frozensets(st.sampled_from(cp.S))) if cp.S else frozenset()
    fn = CharFn(cp, subset)
    assert CharFn.from_text(cp, fn.to_text()) == fn
    set_text = "{" + ",".join(str(v) for v in sorted(subset)) + "}"
    assert CharFn.from_text(cp, set_text) == fn
