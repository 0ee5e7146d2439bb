"""Vectorized (packed-``uint64``) dependence kernel.

The bitset kernel (:mod:`repro.deps.bitset`) already collapsed the
paper's pair sets into one big-int row per instruction, but its
closure loops still visit the DAG one instruction at a time and its
web projection tests one web pair per Python iteration.  This module
rewrites those hot loops over **packed uint64 blocks**:

* every relation is an ``(n, ceil(n/64))`` little-endian word matrix;
* the transitive closure is *level-batched*: nodes are grouped by
  longest-path level, and one :func:`numpy.bitwise_or.reduceat` call
  per level ORs every node's successor (or predecessor) rows at C
  speed — the per-visit Python overhead of the bitset loop disappears;
* E_t / E_f derivation is two whole-matrix boolean expressions;
* the web projection (:func:`web_pair_hits`) reduces each web's
  defining rows with one ``reduceat`` and finds intersecting webs with
  one vectorized AND + any() per row.

The :class:`VectorDependenceKernel` it produces subclasses
:class:`~repro.deps.bitset.DependenceBitKernel`, so every row query,
pair view, and downstream consumer works unchanged; the packed E_f
matrix is cached on the instance for the vectorized splice in
:mod:`repro.core.parallel_interference`.  The hex row codec
(:func:`rows_to_hex`) is the form the region cache
(:mod:`repro.pipeline.incremental`) stores kernels in.

Deadline semantics mirror the bitset kernel: the ``check_deadline``
callback is polled once per :data:`~repro.deps.bitset.
DependenceBitKernel.DEADLINE_STRIDE` *visited instructions* inside the
closure (levels batch many visits, so the poll fires whenever the
visit counter crosses a stride boundary), preserving the driver's
mid-phase ``--time-budget`` preemption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as _np

from repro.deps.bitset import DependenceBitKernel, InstructionIndex
from repro.deps.schedule_graph import ScheduleGraph
from repro.machine.model import MachineDescription
from repro.machine.resources import contention_rows
from repro.utils.bits import iter_bits, popcount

__all__ = [
    "WORD_BITS",
    "VectorDependenceKernel",
    "pack_rows",
    "rows_from_hex",
    "rows_to_hex",
    "unpack_rows",
    "web_pair_hits",
    "words_for",
]

#: Bits per packed word (the vector lane width).
WORD_BITS = 64


def words_for(n: int) -> int:
    """Packed words per row for an *n*-bit universe."""
    return (n + WORD_BITS - 1) // WORD_BITS


# ----------------------------------------------------------------------
# Packing: big-int rows <-> uint64 matrices
# ----------------------------------------------------------------------


def pack_rows(rows: Sequence[int], n: int):
    """Big-int rows → packed little-endian ``(len(rows), words_for(n))``
    uint64 matrix."""
    words = words_for(n)
    nbytes = words * 8
    if not rows:
        return _np.zeros((0, words), dtype=_np.uint64)
    buf = b"".join(row.to_bytes(nbytes, "little") for row in rows)
    matrix = _np.frombuffer(buf, dtype="<u8").reshape(len(rows), words)
    return matrix.astype(_np.uint64, copy=True)


def unpack_rows(matrix, n: int) -> List[int]:
    """Inverse of :func:`pack_rows`: matrix → big-int rows."""
    nbytes = words_for(n) * 8
    data = matrix.astype("<u8", copy=False).tobytes()
    return [
        int.from_bytes(data[off:off + nbytes], "little")
        for off in range(0, len(data), nbytes)
    ]


def rows_to_hex(rows: Sequence[int]) -> List[str]:
    """Endianness-neutral wire form of big-int rows (region cache)."""
    return [format(row, "x") for row in rows]


def rows_from_hex(texts: Sequence[str]) -> List[int]:
    """Inverse of :func:`rows_to_hex`."""
    return [int(text, 16) for text in texts]


# ----------------------------------------------------------------------
# Level-batched transitive closure
# ----------------------------------------------------------------------


class _StridePoller:
    """Counts closure visits and fires ``check_deadline`` every
    :data:`~repro.deps.bitset.DependenceBitKernel.DEADLINE_STRIDE`
    visits — the batched-loop equivalent of the bitset kernel's
    ``k & stride_mask`` test (which also polls at ``k == 0``)."""

    __slots__ = ("check", "visited", "next_poll", "polls")

    def __init__(self, check: Optional[Callable[[], None]]) -> None:
        self.check = check
        self.visited = 0
        self.next_poll = 0
        self.polls = 0

    def visit(self, count: int) -> None:
        if self.check is None:
            return
        if self.visited >= self.next_poll:
            self.polls += 1
            self.check()
            self.next_poll = (
                self.visited + DependenceBitKernel.DEADLINE_STRIDE
            )
        self.visited += count


def _levels_of(adj: List[List[int]], order: List[int]) -> List[List[int]]:
    """Group node positions by longest-path level over *adj*.

    *order* must list positions so that every neighbor in ``adj[i]``
    precedes ``i`` (reverse-topological for the descendants pass,
    topological for the ancestors pass).  Level 0 holds the nodes with
    no neighbors; every node at level L has all neighbors strictly
    below L, so one batched OR per level computes the whole closure.
    """
    level = [0] * len(adj)
    buckets: List[List[int]] = [[]]
    for i in order:
        neighbors = adj[i]
        if neighbors:
            lvl = 1 + max(level[j] for j in neighbors)
        else:
            lvl = 0
        level[i] = lvl
        while len(buckets) <= lvl:
            buckets.append([])
        buckets[lvl].append(i)
    return buckets


def _unit_rows(n: int):
    """Packed identity matrix: row i has exactly bit i set."""
    words = words_for(n)
    unit = _np.zeros((n, words), dtype=_np.uint64)
    positions = _np.arange(n)
    unit[positions, positions // WORD_BITS] = _np.left_shift(
        _np.uint64(1), (positions % WORD_BITS).astype(_np.uint64)
    )
    return unit


def _closure_numpy(
    n: int,
    adj: List[List[int]],
    order: List[int],
    unit,
    poller: _StridePoller,
):
    """Level-batched packed closure: ``M[i] = OR_j (bit_j | M[j])``
    over ``j in adj[i]``, one ``reduceat`` per level."""
    matrix = _np.zeros((n, words_for(n)), dtype=_np.uint64)
    levels = _levels_of(adj, order)
    poller.visit(len(levels[0]))
    for bucket in levels[1:]:
        poller.visit(len(bucket))
        flat: List[int] = []
        offsets: List[int] = []
        for i in bucket:
            offsets.append(len(flat))
            flat.extend(adj[i])
        segment = matrix[flat] | unit[flat]
        rows = _np.bitwise_or.reduceat(segment, offsets, axis=0)
        matrix[bucket] = rows
    return matrix


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------


@dataclass
class VectorDependenceKernel(DependenceBitKernel):
    """Drop-in :class:`DependenceBitKernel` built by the vector engine.

    Rows are plain big ints (full query/pair API inherited); the packed
    E_f matrix is kept in :attr:`packed_ef` so the vectorized web
    splice never re-packs it.

    Attributes:
        packed_ef: ``(n, words)`` uint64 E_f matrix, or ``None`` until
            :meth:`packed_ef_matrix` packs it (empty kernels and
            kernels rebuilt from cached wire rows).
        backend: ``"numpy"`` when built here, ``"wire"`` when rebuilt
            from cached rows.
    """

    packed_ef: object = None
    backend: str = "numpy"

    @classmethod
    def build(
        cls,
        sg: ScheduleGraph,
        machine: Optional[MachineDescription] = None,
        check_deadline: Optional[Callable[[], None]] = None,
    ) -> "VectorDependenceKernel":
        """Derive all rows from a schedule graph and machine.

        Same contract as :meth:`DependenceBitKernel.build` — same rows,
        same deadline-poll stride, same obs counters — computed with
        level-batched packed-word reductions.  Trips the
        ``deps.vector`` fault point.
        """
        from repro.obs import get_metrics, get_tracer
        from repro.utils.faults import trip

        trip("deps.vector")
        index = InstructionIndex(sg.instructions)
        n = len(index)
        position = index.position
        order = sg.topological_order()

        # Dense-position adjacency; successors for the descendants
        # pass, predecessors for the ancestors pass.
        succ_adj: List[List[int]] = [[] for _ in range(n)]
        pred_adj: List[List[int]] = [[] for _ in range(n)]
        graph = sg.graph
        for instr in order:
            i = position(instr)
            succ_adj[i] = [position(s) for s in graph.succ[instr]]
            pred_adj[i] = [position(p) for p in graph.pred[instr]]
        topo = [position(instr) for instr in order]
        reverse_topo = topo[::-1]

        poller = _StridePoller(check_deadline)
        if machine is not None:
            contention = contention_rows(index.instructions, machine)
        else:
            contention = [0] * n
        universe = index.universe

        packed_ef = None
        reach: List[int] = []
        et: List[int] = []
        ef: List[int] = []
        if n:
            unit = _unit_rows(n)
            reach_m = _closure_numpy(n, succ_adj, reverse_topo, unit, poller)
            anc_m = _closure_numpy(n, pred_adj, topo, unit, poller)
            et_m = reach_m | anc_m | pack_rows(contention, n)
            universe_row = pack_rows([universe], n)[0]
            ef_m = ~(et_m | unit) & universe_row
            reach = unpack_rows(reach_m, n)
            et = unpack_rows(et_m, n)
            ef = unpack_rows(ef_m, n)
            packed_ef = ef_m

        kernel = cls(
            index=index,
            reach_rows=reach,
            contention_rows=contention,
            et_rows=et,
            ef_rows=ef,
            packed_ef=packed_ef,
        )

        tracer = get_tracer()
        metrics = get_metrics()
        metrics.counter("kernel.vector_builds").inc()
        if tracer.enabled or metrics.enabled:
            et_edges = sum(popcount(row) for row in et) // 2
            ef_edges = kernel.ef_edge_count()
            tracer.counter("kernel.closure_visits", 2 * n)
            tracer.counter("kernel.deadline_polls", poller.polls)
            tracer.counter("kernel.et_edges", et_edges)
            tracer.counter("kernel.ef_edges", ef_edges)
            metrics.counter("kernel.closure_visits").inc(2 * n)
            metrics.counter("kernel.deadline_polls").inc(poller.polls)
            metrics.histogram("kernel.et_edges").observe(et_edges)
            metrics.histogram("kernel.ef_edges").observe(ef_edges)
        return kernel

    def packed_ef_matrix(self):
        """The packed E_f matrix, building it on first use when the
        kernel was reconstructed from cached wire rows."""
        if self.packed_ef is None:
            self.packed_ef = pack_rows(self.ef_rows, len(self.index))
        return self.packed_ef


# ----------------------------------------------------------------------
# Vectorized web projection
# ----------------------------------------------------------------------


def web_pair_hits(
    ef_rows: Sequence[int],
    masks: Sequence[int],
    n: int,
    packed_ef=None,
    check_deadline: Optional[Callable[[], None]] = None,
    as_arrays: bool = False,
) -> List[Sequence[int]]:
    """Which web pairs share an E_f edge, as upper-triangle hit lists.

    *masks* is the per-web bitmask of defining-instruction positions
    (every mask non-zero, webs in index order — the layout
    :func:`repro.core.parallel_interference._web_def_masks` produces).
    Returns ``hits`` with ``hits[a]`` the ordinals ``b > a`` such that
    some defining instruction of web *a* has an E_f edge to some
    defining instruction of web *b* — exactly the pairs the big-int
    splice inserts, detected one vectorized row at a time.

    With ``as_arrays=True`` each non-empty hit row stays an intp
    ndarray (skipping the ``tolist`` conversion for consumers that feed
    the ordinals straight back into array indexing); rows without hits
    are empty lists either way, so callers must treat rows as generic
    sequences (``len``-test, not truth-test).
    """
    count = len(masks)
    hits: List[Sequence[int]] = [[] for _ in range(count)]
    if count < 2:
        return hits
    ef_m = packed_ef
    if ef_m is None:
        ef_m = pack_rows(ef_rows, n)
    mask_m = pack_rows(masks, n)
    flat: List[int] = []
    offsets: List[int] = []
    for mask in masks:
        offsets.append(len(flat))
        flat.extend(iter_bits(mask))
    neighbor_m = _np.bitwise_or.reduceat(ef_m[flat], offsets, axis=0)
    stride = DependenceBitKernel.DEADLINE_STRIDE - 1
    for a in range(count - 1):
        if check_deadline is not None and not (a & stride):
            check_deadline()
        matched = _np.nonzero(
            (mask_m[a + 1:] & neighbor_m[a]).any(axis=1)
        )[0]
        if matched.size:
            shifted = matched + (a + 1)
            hits[a] = shifted if as_arrays else shifted.tolist()
    return hits
