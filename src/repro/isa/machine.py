"""Functional machine executing the Bonsai-extension instructions.

The machine ties together the sparse memory, the scalar/vector register
files, the ZipPts buffer and the vector (A-B')² unit, and executes the six
instructions of Table II with the micro-operation expansion of Section IV-C.
It is a *functional* model: state changes and access counts are exact, but no
timing is modelled here (timing lives in :mod:`repro.hwmodel`).

It exists for three purposes:

* to demonstrate, end to end and at the instruction level, the compress /
  store / load-decompress / classify flow the paper describes;
* to validate that the ISA-level flow computes exactly the same classification
  as the library-level :class:`repro.core.BonsaiLeafInspector`;
* to provide per-leaf instruction/micro-op counts for the hardware model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.floatfmt import FLOAT16, FloatFormat
from ..core.leaf_compression import ZIPPTS_SLICE_BYTES
from .fu import FU_LANES, VectorSquareDiffUnit
from .instructions import CPRZPB, LDDCP, LDSPZPB, SQDWEH, SQDWEL, STZPB, BonsaiInstruction
from .memory import SparseMemory
from .registers import ScalarRegisterFile, VectorRegisterFile
from .zippts_buffer import ZipPtsBuffer

__all__ = ["InstructionCounters", "BonsaiMachine"]

#: Bytes of one PointXYZ record in the original 32-bit layout.
_POINT_BYTES = 16


@dataclass
class InstructionCounters:
    """Committed instruction / micro-op accounting of the machine."""

    instructions: int = 0
    micro_ops: int = 0
    load_micro_ops: int = 0
    store_micro_ops: int = 0
    bytes_loaded: int = 0
    bytes_stored: int = 0
    per_mnemonic: Dict[str, int] = field(default_factory=dict)

    def note(self, mnemonic: str, micro_ops: int) -> None:
        """Record one committed instruction of ``mnemonic``."""
        self.instructions += 1
        self.micro_ops += micro_ops
        self.per_mnemonic[mnemonic] = self.per_mnemonic.get(mnemonic, 0) + 1


class BonsaiMachine:
    """Executes Bonsai-extension instruction streams over a functional state."""

    def __init__(self, fmt: FloatFormat = FLOAT16,
                 memory: Optional[SparseMemory] = None):
        self.fmt = fmt
        self.memory = memory or SparseMemory()
        self.scalars = ScalarRegisterFile()
        self.vectors = VectorRegisterFile()
        self.zippts = ZipPtsBuffer(fmt)
        self.fu = VectorSquareDiffUnit(fmt)
        self.counters = InstructionCounters()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, instruction: BonsaiInstruction) -> None:
        """Execute one instruction, updating machine state and counters."""
        handler = {
            "LDSPZPB": self._exec_ldspzpb,
            "CPRZPB": self._exec_cprzpb,
            "STZPB": self._exec_stzpb,
            "LDDCP": self._exec_lddcp,
            "SQDWEL": self._exec_sqdwe,
            "SQDWEH": self._exec_sqdwe,
        }.get(instruction.mnemonic)
        if handler is None:
            raise ValueError(f"unknown instruction {instruction!r}")
        handler(instruction)
        self.counters.note(instruction.mnemonic, instruction.micro_ops())

    def run(self, program: Sequence[BonsaiInstruction]) -> None:
        """Execute a sequence of instructions in order."""
        for instruction in program:
            self.execute(instruction)

    # ------------------------------------------------------------------
    # Instruction semantics
    # ------------------------------------------------------------------
    def _exec_ldspzpb(self, instruction: LDSPZPB) -> None:
        address = self.scalars.read(instruction.r_addr)
        slot = self.scalars.read(instruction.r_index)
        point = self.memory.read_point_fp32(address)
        self.counters.load_micro_ops += 1
        self.counters.bytes_loaded += 12
        self.zippts.load_point(slot, point)

    def _exec_cprzpb(self, instruction: CPRZPB) -> None:
        n_points = self.scalars.read(instruction.r_num_pts)
        compressed = self.zippts.compress(n_points)
        self.scalars.write(instruction.r_size, compressed.size_bytes)

    def _exec_stzpb(self, instruction: STZPB) -> None:
        address = self.scalars.read(instruction.r_addr)
        slices = self.zippts.compressed_slices()
        if instruction.n_slices > len(slices):
            raise ValueError(
                f"STZPB asked to store {instruction.n_slices} slices but the buffer "
                f"holds only {len(slices)}"
            )
        for index in range(instruction.n_slices):
            self.memory.write(address + index * ZIPPTS_SLICE_BYTES, slices[index])
            self.counters.store_micro_ops += 1
            self.counters.bytes_stored += ZIPPTS_SLICE_BYTES

    def _exec_lddcp(self, instruction: LDDCP) -> None:
        address = self.scalars.read(instruction.r_addr)
        n_points = self.scalars.read(instruction.r_num_pts)
        data = bytearray()
        for index in range(instruction.n_slices):
            data.extend(self.memory.read(address + index * ZIPPTS_SLICE_BYTES,
                                         ZIPPTS_SLICE_BYTES))
            self.counters.load_micro_ops += 1
            self.counters.bytes_loaded += ZIPPTS_SLICE_BYTES
        self.zippts.load_compressed(bytes(data), n_points)
        values = self.zippts.decompress()
        # Write back per coordinate: two 128-bit registers hold sixteen 16-bit
        # lanes, enough for one coordinate of all buffer points.
        for coord in range(3):
            lanes = np.zeros(16, dtype=np.float64)
            lanes[: values.shape[0]] = values[:, coord]
            low_register = instruction.v_base + 2 * coord
            self.vectors.write_f16_lanes(low_register, lanes[:8])
            self.vectors.write_f16_lanes(low_register + 1, lanes[8:])

    def _exec_sqdwe(self, instruction) -> None:
        v_a = self.vectors.read_f32_lanes(instruction.v_a)
        v_b = self.vectors.read_f16_lanes(instruction.v_b)
        sq, err = self.fu.compute_half(v_a, v_b, high=instruction.high)
        self.vectors.write_f32_lanes(instruction.v_sq_diff, sq)
        self.vectors.write_f32_lanes(instruction.v_error, err)

    # ------------------------------------------------------------------
    # Convenience flows (Section IV-C usage patterns)
    # ------------------------------------------------------------------
    def compress_leaf_points(self, points_fp32: np.ndarray, points_base: int,
                             compressed_base: int) -> Tuple[int, int]:
        """Run the build-time compression flow for one leaf.

        Writes the original points at ``points_base`` (as the cloud already in
        memory), then issues LDSPZPB per point, one CPRZPB, and the STZPB
        stores.  Returns ``(compressed_size_bytes, n_slices)``.
        """
        points_fp32 = np.asarray(points_fp32, dtype=np.float32)
        n_points = points_fp32.shape[0]
        self.memory.write_points_fp32(points_base, points_fp32, stride=_POINT_BYTES)
        self.zippts.clear()
        for i in range(n_points):
            self.scalars.write(1, i)
            self.scalars.write(2, points_base + i * _POINT_BYTES)
            self.execute(LDSPZPB(r_index=1, r_addr=2))
        self.scalars.write(3, n_points)
        self.execute(CPRZPB(r_size=4, r_num_pts=3))
        size_bytes = self.scalars.read(4)
        n_slices = size_bytes // ZIPPTS_SLICE_BYTES
        self.scalars.write(5, compressed_base)
        self.execute(STZPB(r_addr=5, n_slices=n_slices))
        return size_bytes, n_slices

    def classify_leaf(self, query: Sequence[float], r2: float, compressed_base: int,
                      n_points: int, n_slices: int,
                      points_base: int) -> Tuple[List[int], int]:
        """Run the search-time flow for one leaf.

        Issues the LDDCP load/decompress, broadcasts each query coordinate and
        runs SQDWEL/SQDWEH per coordinate, accumulates distances and errors,
        applies the shell test of Eq. 12 and re-reads the original 32-bit
        points for inconclusive lanes.  Returns the local indices of in-radius
        points and the number of recomputed classifications.
        """
        query = np.asarray(query, dtype=np.float64)
        self.scalars.write(6, n_points)
        self.scalars.write(7, compressed_base)
        self.execute(LDDCP(v_base=8, r_num_pts=6, r_addr=7, n_slices=n_slices))

        d2 = np.zeros(16, dtype=np.float64)
        err = np.zeros(16, dtype=np.float64)
        for coord in range(3):
            self.vectors.write_f32_lanes(1, [query[coord]] * FU_LANES)
            low_register = 8 + 2 * coord
            for half_register, high in ((low_register, False), (low_register, True),
                                        (low_register + 1, False), (low_register + 1, True)):
                self.execute(
                    (SQDWEH if high else SQDWEL)(
                        v_sq_diff=2, v_error=3, v_a=1, v_b=half_register
                    )
                )
                sq = self.vectors.read_f32_lanes(2)
                er = self.vectors.read_f32_lanes(3)
                base_lane = (0 if half_register == low_register else 8) + (4 if high else 0)
                d2[base_lane: base_lane + 4] += sq
                err[base_lane: base_lane + 4] += er

        in_radius: List[int] = []
        recomputed = 0
        for local in range(n_points):
            if d2[local] <= r2 - err[local]:
                in_radius.append(local)
            elif d2[local] > r2 + err[local]:
                continue
            else:
                recomputed += 1
                original = self.memory.read_point_fp32(points_base + local * _POINT_BYTES)
                self.counters.load_micro_ops += 1
                self.counters.bytes_loaded += _POINT_BYTES
                diff = query - original
                if float(diff @ diff) <= r2:
                    in_radius.append(local)
        return in_radius, recomputed
