"""Unit + property tests for the Location Information encoding (Table I)."""

from hypothesis import given, strategies as st
import pytest

from repro.common.errors import ConfigError
from repro.core.li import LI, LICodec


class TestLIValues:
    def test_singletons(self):
        assert LI.invalid() is LI.invalid()
        assert LI.mem() is LI.mem()

    def test_predicates(self):
        assert LI.in_l1(3, instr=False).is_local_cache
        assert LI.in_l2(2).is_local_cache
        assert not LI.in_llc(5).is_local_cache
        assert LI.in_llc(5).is_llc
        assert LI.in_slice(2, 1).is_llc
        assert not LI.invalid().is_valid
        assert LI.mem().is_valid

    def test_equality_includes_instr_flag(self):
        assert LI.in_l1(3, True) != LI.in_l1(3, False)
        assert LI.in_l1(3, True) == LI.in_l1(3, True)

    def test_str_forms(self):
        assert str(LI.in_node(5)) == "Node5"
        assert str(LI.in_l1(2, True)) == "L1I[2]"
        assert str(LI.in_slice(3, 1)) == "LLC3[1]"
        assert str(LI.mem()) == "MEM"


def paper_codec(near_side=False):
    return LICodec(nodes=8, l1_ways=8, l2_ways=8, llc_ways=32,
                   near_side=near_side)


class TestCodecStructure:
    def test_bit_budget(self):
        # paper: 6 bits; we carry one more for the explicit L1 I/D flag
        assert paper_codec().bits == 7
        assert paper_codec(near_side=True).bits == 7

    def test_llc_group_has_top_bit(self):
        codec = paper_codec()
        assert codec.encode(LI.in_llc(21)) >> (codec.bits - 1) == 1
        assert codec.encode(LI.in_l1(3, False)) >> (codec.bits - 1) == 0

    def test_table1_group_selectors(self):
        codec = paper_codec()
        shift = codec.bits - 3
        assert codec.encode(LI.in_node(5)) >> shift == 0b000
        assert codec.encode(LI.in_l1(5, False)) >> shift == 0b001
        assert codec.encode(LI.in_l2(5)) >> shift == 0b010
        assert codec.encode(LI.mem()) >> shift == 0b011

    def test_near_side_reinterpretation(self):
        codec = paper_codec(near_side=True)
        value = codec.encode(LI.in_slice(5, 2))
        # 1 NNN WW: node in the middle bits, way in the low bits
        assert value >> (codec.bits - 1) == 1
        assert codec.decode(value) == LI.in_slice(5, 2)

    def test_far_codec_rejects_slice(self):
        with pytest.raises(ConfigError):
            paper_codec().encode(LI.in_slice(0, 0))

    def test_decode_range_checked(self):
        with pytest.raises(ConfigError):
            paper_codec().decode(1 << 7)


def li_strategy(near_side: bool):
    llc = (st.builds(LI.in_slice, st.integers(0, 7), st.integers(0, 3))
           if near_side else st.builds(LI.in_llc, st.integers(0, 31)))
    return st.one_of(
        st.just(LI.mem()),
        st.just(LI.invalid()),
        st.builds(LI.in_node, st.integers(0, 7)),
        st.builds(LI.in_l1, st.integers(0, 7), st.booleans()),
        st.builds(LI.in_l2, st.integers(0, 7)),
        llc,
    )


@given(li_strategy(near_side=False))
def test_far_side_roundtrip(li):
    codec = paper_codec()
    assert codec.decode(codec.encode(li)) == li


@given(li_strategy(near_side=True))
def test_near_side_roundtrip(li):
    codec = paper_codec(near_side=True)
    assert codec.decode(codec.encode(li)) == li


@given(li_strategy(near_side=False))
def test_encoding_fits_budget(li):
    codec = paper_codec()
    assert 0 <= codec.encode(li) < (1 << codec.bits)
