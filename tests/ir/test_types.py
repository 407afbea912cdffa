"""Unit tests for the IR type system."""

import pytest

from repro.ir import F32, I1, I8, I32, I64, VOID, IntType, PointerType, ptr


class TestTypeIdentity:
    def test_same_width_ints_compare_equal(self):
        assert IntType(32) == I32
        assert IntType(32) is not I32  # equality, not identity

    def test_different_widths_differ(self):
        assert I32 != I64
        assert I8 != I1

    def test_pointer_equality_follows_pointee(self):
        assert ptr(I32) == ptr(I32)
        assert ptr(I32) != ptr(I64)

    def test_types_are_hashable(self):
        s = {I32, I64, ptr(I32), ptr(I32), F32}
        assert len(s) == 4

    def test_void_vs_int(self):
        assert VOID != I32
        assert VOID.is_void()
        assert not I32.is_void()


class TestSizes:
    @pytest.mark.parametrize("type_, size", [
        (I1, 1), (I8, 1), (I32, 4), (I64, 8), (F32, 4), (ptr(I32), 8), (VOID, 0),
    ])
    def test_size_bytes(self, type_, size):
        assert type_.size_bytes == size


class TestIntSemantics:
    def test_wrap_positive_overflow(self):
        assert I8.wrap(128) == -128
        assert I8.wrap(255) == -1
        assert I8.wrap(256) == 0

    def test_wrap_negative(self):
        assert I8.wrap(-129) == 127

    def test_wrap_i1(self):
        assert I1.wrap(3) == 1
        assert I1.wrap(2) == 0

    def test_range_bounds(self):
        assert I32.min_value == -(2 ** 31)
        assert I32.max_value == 2 ** 31 - 1

    def test_unsupported_width_rejected(self):
        with pytest.raises(ValueError):
            IntType(13)


class TestPointers:
    def test_pointer_to_void_rejected(self):
        with pytest.raises(ValueError):
            PointerType(VOID)

    def test_nested_pointer(self):
        pp = ptr(ptr(I32))
        assert pp.pointee == ptr(I32)
        assert pp.pointee.pointee == I32

    def test_classification(self):
        assert ptr(I32).is_pointer()
        assert isinstance(I32, IntType)
        assert F32.is_float()
        assert not isinstance(F32, IntType)
