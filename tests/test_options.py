"""``MultilevelOptions`` owns its values.

Every field is typed once, at construction, by its annotation.  A scheme's
name and its enum member, an ``np.int64`` and an ``int``, ``2`` and ``2.0``
for a float field are therefore the same options: one cache key, the same
bits.  Anything else is a :class:`ConfigurationError` naming the field.
"""

import numpy as np
import pytest

from repro.core import bisect, partition
from repro.core.options import (
    DEFAULT_OPTIONS,
    InitialScheme,
    MatchingScheme,
    MultilevelOptions,
    RefinePolicy,
    cache_key_payload,
)
from repro.kernels import resolve_kernels
from repro.matrices import suite
from repro.ordering import mlnd_ordering
from repro.service.cache import request_key, where_digest
from repro.utils.errors import ConfigurationError

MEMBERS = [
    (field, member)
    for field, scheme in (
        ("matching", MatchingScheme),
        ("initial", InitialScheme),
        ("refinement", RefinePolicy),
    )
    for member in scheme
]

GRAPHS = {
    name: suite.load(name, scale=0.25, seed=1) for name in ("4ELT", "BCSSTK31")
}


#: A value of the wrong type, or an unknown name, for each kind of field.
WRONG = [
    ("matching", "xyz"),
    ("matching", "HEM"),
    ("initial", "xyz"),
    ("refinement", "xyz"),
    ("refinement", None),
    ("eager_gains", "no"),
    ("sanitize", "no"),
    ("sanitize", 1),
    ("workers", True),
    ("seed", "5"),
    ("seed", 5.5),
    ("seed", None),
    ("coarsen_to", 100.0),
    ("ubfactor", "x"),
    ("ubfactor", float("inf")),
    ("ubfactor", float("nan")),
    ("ubfactor", 10**400),
    ("deadline", True),
    ("gain_table", None),
    ("kernels", 5),
    ("faults", ["lanczos"]),
    ("trace", 0),
]


def _bits(graph, options, seed):
    """Digests of a bisection, an 8-way partition and an MLND ordering."""
    rng = np.random.default_rng
    return (
        where_digest(bisect(graph, options, rng(seed)).bisection.where),
        where_digest(partition(graph, 8, options, rng(seed)).where),
        where_digest(mlnd_ordering(graph, options, rng(seed)).perm),
    )


class TestConstruction:
    def test_values_are_stored_typed(self):
        o = MultilevelOptions(
            matching="hcm", initial="sbp", refinement="none",
            seed=np.int64(3), workers=np.int32(1), ubfactor=2, deadline=1,
        )
        assert o.matching is MatchingScheme.HCM
        assert o.initial is InitialScheme.SBP
        assert o.refinement is RefinePolicy.NONE
        assert type(o.seed) is int and type(o.workers) is int
        assert type(o.ubfactor) is float and type(o.deadline) is float
        assert o == MultilevelOptions(
            matching=MatchingScheme.HCM, initial=InitialScheme.SBP,
            refinement=RefinePolicy.NONE, seed=3, workers=1, ubfactor=2.0,
            deadline=1.0,
        )

    @pytest.mark.parametrize(
        "field, value", WRONG, ids=[f"{f}={v!r}"[:24] for f, v in WRONG]
    )
    def test_wrong_type_or_name_raises_naming_the_field(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            MultilevelOptions(**{field: value})


@pytest.mark.parametrize(
    "field, member", MEMBERS, ids=[member.value for _, member in MEMBERS]
)
def test_name_and_member_give_the_same_bits(field, member):
    by_name = DEFAULT_OPTIONS.with_(**{field: member.value})
    by_member = DEFAULT_OPTIONS.with_(**{field: member})
    for graph in GRAPHS.values():
        for seed in (1, 2):
            assert _bits(graph, by_name, seed) == _bits(graph, by_member, seed)


class TestCacheKeyContract:
    """Options that differ only in representation share a key and bits."""

    @pytest.mark.parametrize(
        "a, b",
        [
            ({"matching": "hcm"}, {"matching": MatchingScheme.HCM}),
            ({"initial": "sbp"}, {"initial": InitialScheme.SBP}),
            ({"refinement": "klr"}, {"refinement": RefinePolicy.KLR}),
            ({"seed": np.int64(7)}, {"seed": 7}),
            ({"ubfactor": 2}, {"ubfactor": 2.0}),
        ],
        ids=["matching", "initial", "refinement", "np-int64-seed", "int-float"],
    )
    def test_equal_payload_key_and_bits(self, a, b):
        graph = GRAPHS["4ELT"]
        oa, ob = DEFAULT_OPTIONS.with_(**a), DEFAULT_OPTIONS.with_(**b)
        pa, pb = cache_key_payload(oa), cache_key_payload(ob)
        assert pa == pb
        assert request_key("partition", graph, {"options": pa}) == request_key(
            "partition", graph, {"options": pb}
        )
        assert _bits(graph, oa, oa.seed) == _bits(graph, ob, ob.seed)

    def test_kernels_env_resolves_alike_in_key_and_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", " numba ")
        assert cache_key_payload(DEFAULT_OPTIONS)["kernels"] == "numba"
        assert resolve_kernels(DEFAULT_OPTIONS).requested == "numba"
