"""``report.jsonable`` returns plain scalars before its type tests; it must
convert every payload exactly as the walk without that shortcut does."""

from enum import IntEnum
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from crowdtier.report import jsonable


def walk(value):
    """``jsonable`` as it was before the plain-scalar shortcut."""
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else str(value.numerator)
    if isinstance(value, dict):
        return {str(k): walk(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (set, frozenset)):
        return [walk(v) for v in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [walk(v) for v in value]
    return value


# An int subclass is no plain scalar, so it takes the walk's type tests.
Level = IntEnum("Level", "LOW HIGH")
NUMBERS = st.one_of(st.booleans(), st.integers(-1000, 1000),
                    st.fractions(max_denominator=5))
SCALARS = st.one_of(NUMBERS, st.sampled_from(Level), st.none(), st.floats(allow_nan=False),
                    st.text(max_size=4))
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.sets(NUMBERS, max_size=5),
        st.frozensets(st.integers(-20, 20), max_size=5),
        st.dictionaries(st.one_of(st.integers(-5, 30), st.text(max_size=3)), inner,
                        max_size=5),
    ),
    max_leaves=30,
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(PAYLOADS)
def test_jsonable_converts_as_the_walk_without_the_scalar_shortcut(payload):
    # repr tells True from 1 and 1.0 from 1, which == does not.
    assert repr(jsonable(payload)) == repr(walk(payload))
