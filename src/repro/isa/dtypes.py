"""Operand data types of the Tango ISA.

Figure 10 of the paper breaks instructions down by data type: 32-bit
floats carry the neural-network arithmetic, while unsigned 32/16-bit and
signed 32/16-bit integers carry address and index arithmetic.  The paper
observes that even without quantization the integer types dominate
(Observation 8), because of index calculation and ReLU-zeroed data.
"""

from __future__ import annotations

import enum


class DType(enum.Enum):
    """Instruction data type, named exactly as in the paper's Figure 10."""

    F32 = "f32"
    U32 = "u32"
    U16 = "u16"
    S32 = "s32"
    S16 = "s16"
    PRED = "pred"
    NONE = "none"

    @property
    def is_float(self) -> bool:
        """True for floating-point types."""
        return self is DType.F32

    @property
    def is_integer(self) -> bool:
        """True for the integer index/address types."""
        return self in (DType.U32, DType.U16, DType.S32, DType.S16)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value
