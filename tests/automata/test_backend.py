"""Backend protocol: selection plumbing and kernel equivalence.

The bitset backend must be *observationally identical* to the
reference kernels (see docs/BACKENDS.md): determinize and product are
pinned structure-identical (same states, numbering, edges, bridge
tags, provenance), minimize language-equal with the same minimal state
count, and the predicates bit-for-bit equal.  Selection resolves
``use_backend`` > bitset.
"""

import pytest
from hypothesis import given, settings

from repro.automata import serialize
from repro.automata.backend import (
    ReferenceBackend,
    active_backend,
    get_backend,
    use_backend,
)
from repro.automata.bitset import BitsetBackend
from repro.automata.dfa import _determinize, _minimize_dfa
from repro.automata.equivalence import counterexample
from repro.automata.nfa import Nfa
from repro.automata.ops import _product_reference, concat, union

from ..helpers import AB, language
from ..prop.strategies import machines

REFERENCE = ReferenceBackend()
BITSET = BitsetBackend()


class TestSelection:
    def test_default_is_bitset(self, monkeypatch):
        # No environment variable selects a backend.
        monkeypatch.setenv("DPRLE_BACKEND", "reference")
        assert active_backend().name == "bitset"

    def test_get_backend_unknown_name(self):
        with pytest.raises(ValueError, match="unknown automata backend"):
            get_backend("no-such-backend")

    def test_get_backend_is_memoized(self):
        assert get_backend("bitset") is get_backend("bitset")
        assert get_backend("reference") is get_backend("reference")

    def test_use_backend_scopes_and_restores(self):
        before = active_backend().name
        with use_backend("bitset"):
            assert active_backend().name == "bitset"
            with use_backend("reference"):
                assert active_backend().name == "reference"
            assert active_backend().name == "bitset"
        assert active_backend().name == before

    def test_use_backend_accepts_instance(self):
        custom = BitsetBackend()
        with use_backend(custom):
            assert active_backend() is custom

    def test_use_backend_none_is_noop(self):
        with use_backend("bitset"):
            with use_backend(None):
                assert active_backend().name == "bitset"


def _sample_machines() -> list[Nfa]:
    a = Nfa.literal("ab", AB)
    b = Nfa.literal("ba", AB)
    return [
        a,
        union(a, b),
        concat(a, union(b, Nfa.literal("", AB))),
        Nfa.universal(AB),
        Nfa.never(AB),
    ]


class TestKernelEquivalence:
    @pytest.mark.parametrize("index", range(5))
    def test_determinize_structure_identical(self, index):
        m = _sample_machines()[index]
        ref = _determinize(m)
        bit = BITSET.determinize(m)
        assert serialize.to_dict(ref.to_nfa()) == serialize.to_dict(bit.to_nfa())

    def test_product_structure_and_provenance_identical(self):
        ms = _sample_machines()
        for a in ms[:3]:
            for b in ms[:3]:
                ref, prov_ref = _product_reference(a, b)
                bit, prov_bit = BITSET.product(a, b)
                assert serialize.to_dict(ref) == serialize.to_dict(bit)
                assert prov_ref == prov_bit

    def test_product_preserves_bridge_tags(self):
        # concat() introduces tagged ε-bridges; the product must copy
        # them verbatim (GCI reads bridge structure off the product).
        a = concat(Nfa.literal("a", AB), Nfa.literal("b", AB))
        bit, _ = BITSET.product(a, Nfa.universal(AB))
        ref, _ = _product_reference(a, Nfa.universal(AB))
        tags = lambda m: [
            (src, edge.dst, edge.tag)
            for src in sorted(m.states)
            for edge in m.out_edges(src)
            if edge.tag is not None
        ]
        assert tags(ref) == tags(bit)
        assert tags(bit), "expected at least one bridge tag in the product"

    def test_minimize_language_and_size(self):
        for m in _sample_machines():
            ref = _minimize_dfa(_determinize(m))
            bit = BITSET.minimize_dfa(BITSET.determinize(m))
            assert ref.num_states == bit.num_states
            assert language(ref.to_nfa()) == language(bit.to_nfa())

    def test_minimize_rejects_incomplete_dfa(self):
        dfa = _determinize(Nfa.literal("a", AB))
        broken = dfa.complemented()
        broken.transitions[broken.start] = broken.transitions[broken.start][:1]
        with pytest.raises(ValueError, match="incomplete DFA"):
            BITSET.minimize_dfa(broken)

    def test_left_quotient_prefix_outside_alphabet(self):
        # "c" is not in AB: the complete DFA has no move on it, so no
        # prefix string reaches a seed and the quotient is empty.
        prefixes = Nfa.literal("c", AB)
        target = Nfa.literal("ab", AB)
        ref = REFERENCE.left_quotient(prefixes, target)
        bit = BITSET.left_quotient(prefixes, target)
        assert ref.is_empty() and bit.is_empty()

    @settings(max_examples=40, deadline=None)
    @given(machines(max_depth=2), machines(max_depth=2))
    def test_property_kernels_agree(self, a, b):
        assert serialize.to_dict(_determinize(a).to_nfa()) == serialize.to_dict(
            BITSET.determinize(a).to_nfa()
        )
        ref, prov_ref = _product_reference(a, b)
        bit, prov_bit = BITSET.product(a, b)
        assert serialize.to_dict(ref) == serialize.to_dict(bit)
        assert prov_ref == prov_bit
        mr = _minimize_dfa(_determinize(a))
        mb = BITSET.minimize_dfa(BITSET.determinize(a))
        assert mr.num_states == mb.num_states
        assert BITSET.is_subset(a, b) == (counterexample(a, b) is None)
        assert BITSET.is_empty(a) == a.is_empty()
        assert language(BITSET.complement(a), 4) == language(
            REFERENCE.complement(a), 4
        )
