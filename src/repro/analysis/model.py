"""The paper's mathematical model (§III, Eq. 1-5) and space overheads.

Notation (Table II):

* ``T_w``  — time to write the data to the PM device;
* ``T_f``  — chunking + strong fingerprinting + duplicate lookup;
* ``T_fw`` — the same pipeline with the weak fingerprint;
* ``T_a``  — the remaining write-transaction time;
* ``α``    — duplicate ratio of the workload.

Eq. 2: plain write ``T_w + T_a`` vs inline dedup
``T_f + (1-α)·T_w + T_a``; simplifies to Eq. 3 ``α·T_w < T_f``, which
Eq. 1 (``T_w ≪ T_f``) guarantees for all α in [0, 1) — inline dedup can
never win on a device where writes are cheaper than hashing.  Eq. 4/5
extend this to NVDedup's adaptive scheme: the weak-fingerprint term is
always paid, so the inequality still holds.

The model instance pulls its times from the same :class:`CpuModel` /
:class:`LatencyModel` the simulator charges, so the analytical and
measured results are mutually consistent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dedup.fact import ENTRY
from repro.dedup.fingerprint import CHUNK_SIZE
from repro.nova.layout import PAGE_SIZE
from repro.pm.latency import LatencyModel, OPTANE_DCPM

__all__ = ["InlineModel", "fact_overhead", "nvdedup_metadata_overhead",
           "dram_index_overhead"]

_LOOKUP_READS = 2  # average FACT reads per lookup (DAA hit + occasional hop)
_T_A_NS = 700.0    # T_a: transaction bookkeeping (syscall etc.)
_EQ1_MARGIN = 2.0  # Eq. 1 "T_w ≪ T_f" read as T_f > 2 T_w
_DRAM_INDEX_ENTRY = 24  # bytes per block of NVDedup's DRAM index


@dataclass(frozen=True)
class InlineModel:
    """Eq. 1-5 evaluated over a device/CPU cost model."""

    model: LatencyModel = OPTANE_DCPM

    # -- primitive times -------------------------------------------------------

    def t_w(self, nbytes: int) -> float:
        """Time to write ``nbytes`` to the device."""
        return self.model.write_cost(nbytes)

    def t_f(self, nbytes: int) -> float:
        """Chunking + strong fingerprint + duplicate lookup (per Eq. T_f)."""
        chunks = max(1, (nbytes + CHUNK_SIZE - 1) // CHUNK_SIZE)
        per_chunk = (
            self.model.read_cost(CHUNK_SIZE)                 # chunking read
            + self.model.cpu.sha1_cost(CHUNK_SIZE)           # fingerprint
            + _LOOKUP_READS * self.model.read_cost(64)       # FACT lookup
        )
        return chunks * per_chunk

    def t_fw(self, nbytes: int) -> float:
        """The weak-fingerprint pipeline (Eq. 4's T_fw)."""
        chunks = max(1, (nbytes + CHUNK_SIZE - 1) // CHUNK_SIZE)
        per_chunk = (self.model.read_cost(CHUNK_SIZE)
                     + self.model.cpu.crc32_cost(CHUNK_SIZE))
        return chunks * per_chunk

    # -- Eq. 1-5 ---------------------------------------------------------------------

    def eq1_holds(self, nbytes: int) -> bool:
        """Eq. 1: T_w ≪ T_f (with a factor of 2 as the ≪ margin)."""
        return self.t_f(nbytes) > _EQ1_MARGIN * self.t_w(nbytes)

    def baseline_write_time(self, nbytes: int) -> float:
        """Left side of Eq. 2: T_w + T_a."""
        return self.t_w(nbytes) + _T_A_NS

    def inline_write_time(self, nbytes: int, alpha: float) -> float:
        """Right side of Eq. 2: T_f + (1-α)·T_w + T_a."""
        self._check_alpha(alpha)
        return self.t_f(nbytes) + (1 - alpha) * self.t_w(nbytes) + _T_A_NS

    def adaptive_write_time(self, nbytes: int, alpha: float) -> float:
        """Right side of Eq. 4 (worst case: every weak FP collides)."""
        self._check_alpha(alpha)
        return (self.t_fw(nbytes) + alpha * self.t_f(nbytes)
                + (1 - alpha) * self.t_w(nbytes) + _T_A_NS)

    def eq3_holds(self, nbytes: int, alpha: float) -> bool:
        """Eq. 3: α·T_w < T_f — inline dedup strictly loses."""
        self._check_alpha(alpha)
        return alpha * self.t_w(nbytes) < self.t_f(nbytes)

    def eq5_holds(self, nbytes: int, alpha: float) -> bool:
        """Eq. 5: α·T_w < T_fw + α·T_f — adaptive inline loses too."""
        self._check_alpha(alpha)
        return (alpha * self.t_w(nbytes)
                < self.t_fw(nbytes) + alpha * self.t_f(nbytes))

    def inline_slowdown(self, nbytes: int, alpha: float) -> float:
        """Predicted inline/baseline write-time ratio (Fig. 8's gap)."""
        return (self.inline_write_time(nbytes, alpha)
                / self.baseline_write_time(nbytes))

    @staticmethod
    def _check_alpha(alpha: float) -> None:
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {alpha}")


# ---------------------------------------------------------------- space overheads


def fact_overhead(device_bytes: int) -> float:
    """§IV-C: FACT NVM footprint as a fraction of capacity (≈ 3.2 %).

    Two entries (DAA + IAA) per data block, 64 B each.
    """
    blocks = device_bytes // PAGE_SIZE
    return 2 * blocks * ENTRY / device_bytes


def nvdedup_metadata_overhead(device_bytes: int) -> float:
    """NVDedup's NVM metadata table: one 64 B entry per block (≈ 1.6 %);
    FACT doubles it by pre-provisioning the IAA (§IV-C)."""
    blocks = device_bytes // PAGE_SIZE
    return blocks * ENTRY / device_bytes


def dram_index_overhead(device_bytes: int) -> float:
    """§III: NVDedup's DRAM index ≈ 0.6 % of NVM capacity (24 B/block).

    The paper's example: a 1 TB device needs ~6 GB of DRAM just for the
    index — 18.75 % of a 32 GB server; DeNova's answer is 0 bytes.
    """
    blocks = device_bytes // PAGE_SIZE
    return blocks * _DRAM_INDEX_ENTRY / device_bytes
