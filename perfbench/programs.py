"""The programs the benchmark compiles, runs and serves, and their streams.

Every program is one of the repository's workloads (``repro.workloads``).
Profiling always uses a fixed *training* stream: a prefix of the
workload's default input stream.  The prefix is the shortest power-of-two
fraction of the default stream on which the reuse pipeline selects the
same segments as on the whole stream (``selected`` below, measured on the
full stream with default options); ``compile_ops`` re-checks the
selection on every compile, and ``perfbench/tests`` re-derives it from
the full stream.  Table capacities shrink with the prefix (capacity
follows the number of distinct profiled inputs), so ``table_kb`` is the
size of the tables built from the training prefix.

Timed operations never see the training stream: they use held-out
streams drawn from the same generators in ``repro.workloads.inputs``
with a seed derived from the benchmark's ``--seed``.

Chunks never split a read group: MPEG2 programs read a 64-value block
per ``__input_avail()`` check and GNU Go a 4-value tuple, so a chunk is a
multiple of the program's granule (the rule ``repro.service.loadgen``
applies).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

from repro.workloads import inputs as gen
from repro.workloads.registry import get_workload

# Input values per timed op ("Served /v1/run on a 256-input chunk").
CHUNK = 256

# Read granule per program family; a chunk boundary never cuts a group.
GRANULES = (("MPEG2", 64), ("GNUGO", 4))


def granule(name: str) -> int:
    for prefix, size in GRANULES:
        if name.startswith(prefix):
            return size
    return 1


def _frames(n: int, per_frame: int) -> int:
    return n // per_frame + 2


def _unepic_drift(seed: int, n: int) -> list:
    # stationary quarter drawn like the training stream, then the shift
    shift = n // 4
    tail = gen.unepic_coeffs_drift(seed=seed + 1, n=n, shift_at=shift)[shift:]
    return gen.unepic_coeffs(seed=seed, n=shift) + tail


def _gnugo_drift(seed: int, n: int) -> list:
    moves = _frames(n, 920)
    return gen.gnugo_points_drift(seed=seed, moves=moves, shift_move=moves // 4)[:n]


@dataclass(frozen=True)
class Program:
    """One benchmark program and why it is in the benchmark."""

    name: str
    # profile on default_inputs()[: len // training_fraction]
    training_fraction: int
    # segment ids the pipeline selects on the *full* default stream
    selected: tuple
    # (seed, n) -> a held-out stream of n values from the same generator
    held_out: Callable[[int, int], list]
    why: str
    governed: bool = False

    @property
    def source(self) -> str:
        return get_workload(self.name).source

    @property
    def granule(self) -> int:
        return granule(self.name)

    def training(self) -> list:
        stream = get_workload(self.name).default_inputs()
        n = len(stream) // self.training_fraction
        return stream[: n - n % self.granule]

    def stream(self, seed: int, n: int) -> list:
        """``n`` held-out values (rounded down to the granule) for ``seed``."""
        n -= n % self.granule
        values = self.held_out(zlib.crc32(f"{self.name}:{seed}".encode()), n)
        assert len(values) >= n, (self.name, len(values), n)
        return values[:n]

    def chunks(self, seed: int, count: int, size: int = CHUNK) -> list:
        size -= size % self.granule
        values = self.stream(seed, size * count)
        return [values[i : i + size] for i in range(0, size * count, size)]


PROGRAMS = {
    p.name: p
    for p in (
        Program(
            "G721_encode",
            16,
            (18,),
            lambda seed, n: gen.g721_audio(seed=seed, n=n),
            "quan: a function segment over a small input domain, so R is "
            "high; reuse wins in cycles yet can lose in wall-clock, the case "
            "where the two cost currencies disagree",
        ),
        Program(
            "G721_decode",
            16,
            (16,),
            lambda seed, n: gen.g721_codes(gen.g721_audio(seed=seed, n=n)),
            "the decoder side of G.721: a different segment of the same "
            "family, fed a derived code stream",
        ),
        Program(
            "RASTA",
            16,
            (0,),
            lambda seed, n: gen.rasta_bands(seed=seed, frames=_frames(n, 20))[:n],
            "31 distinct bands: the cheapest compile, so it is the floor of "
            "per-compile fixed cost (parse, analyses, static stages)",
        ),
        Program(
            "UNEPIC",
            16,
            (0,),
            lambda seed, n: gen.unepic_coeffs(seed=seed, n=n),
            "a loop segment with one-word keys over a wide Laplacian domain: "
            "large tables, collisions, the table read path",
        ),
        Program(
            "GNUGO",
            8,
            (1, 3, 5, 7, 9, 11, 13, 15),
            lambda seed, n: gen.gnugo_points(seed=seed, moves=_frames(n, 920))[:n],
            "eight segments sharing one merged table with 4-word keys: the "
            "Jenkins hashing path at compile time and on every probe "
            "(1/16 of the stream selects nothing, so 1/8)",
        ),
        Program(
            "UNEPIC_drift",
            16,
            (0,),
            _unepic_drift,
            "UNEPIC whose held-out stream shifts to near-unique values after "
            "its first quarter: a governed table misses, commits, evicts "
            "and disables itself",
            governed=True,
        ),
        Program(
            "GNUGO_drift",
            8,
            (1, 3, 5, 7, 9, 11, 13, 15),
            _gnugo_drift,
            "GNU Go whose board churns after the opening: a governed merged "
            "table with per-member governors that transition",
            governed=True,
        ),
    )
}

# MPEG2_encode and MPEG2_decode are left out: fdct/idct run once per
# 64-value block, so the pipeline needs a quarter of the stream to select
# the full-stream segment, and one such compile (2.5-2.8 s) costs more
# than the five programs below together.
COMPILE_PROGRAMS = ("RASTA", "G721_encode", "G721_decode", "UNEPIC", "GNUGO")

# Three programs, one per table shape (function segment, loop segment,
# merged table); an odd count keeps the median inside one program's
# latency cluster instead of on the boundary between two.
RUN_PROGRAMS = ("G721_encode", "UNEPIC", "GNUGO")

# Two tenants, each with one static and one governed program.  G721_encode
# has two slots per cycle of the arrival mix (five slots in all), so the
# median request falls inside one program's latency cluster.
SERVE_TENANTS = {
    "tenant-a": ("G721_encode", "UNEPIC_drift"),
    "tenant-b": ("RASTA", "GNUGO_drift"),
}
SERVE_MIX = ("G721_encode", "G721_encode", "RASTA", "UNEPIC_drift", "GNUGO_drift")
