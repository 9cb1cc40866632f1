"""Block-structured 24x24 unsigned multiplier with power gating and self-repair.

The 24x24 datapath is four 12x12 quadrant modules (operand halves HH, HL,
LH, LL), and each quadrant is nine 4x4 blocks plus one spare. Two layers of
width checkers power off blocks whose operand groups are all zero:

* outer checkers classify each 24-bit operand over [12, 24] and gate whole
  quadrants,
* inner checkers classify each 12-bit operand over [4, 8, 12] and gate rows
  and columns of 4x4 blocks.

A block can be forced faulty (its 8-bit output stuck at a chosen value).
Each quadrant's spare can replace exactly one such block: the spare gets
the same operand groups and its product is routed to the consumers, while
the faulty block itself is powered off.

Every 4x4 block is simulated bit-accurately through a fixed three-level
cell netlist (16 AND cells feeding two parallel adder chains, then a
low/high merge, then final carry resolution). The netlist's truth table
for all 256 operand pairs is computed once, by evaluating its cells in
order on Python-int bit planes of the 256 pairs, not by the compiled
engine, and every block product is a lookup in it.

One numpy engine evaluates the quadrant and top levels for a batch of
operand pairs (:func:`mul24_batch`, :func:`mul12_batch`). It works per
block row: row r of a quadrant is the three blocks that multiply 4-bit
group r of a by one 12-bit half of b, and a row-sum table built from the
mul4 truth table gives the weighted sum of those three products in one
gather, for every row of every pair. Shifted and added, the rows give the
fault-free products. Width gating needs no work on the products, since a
gated block has a zero operand group and so a zero product. A power-pattern
table, built from the width checkers' rule, maps how many groups of each
12-bit half are powered to the pair's 40-bit mask of powered blocks, bit k
standing for ``BLOCK_IDS[k]``; a repaired block's bit moves to its
quadrant's spare, which computes the true product. The call's fault and
repair plan is validated once, before the engine runs. Only a plan with a
live, unrepaired fault sums per quadrant: each such fault that is powered
adds its forced value minus the true block product to its quadrant, which
wraps modulo 2**24. Besides the products, a :class:`BlockBatch` holds per
pair the powered mask and the mask of the faulty blocks that drove their
forced value. No product depends on the powered masks but through a live
fault, so a call looks them up only when a plan has one; otherwise the
first read of a batch's powered masks looks them up, once for all plans of
its call, and a plan with no live fault drove no forced value. The products
run in chunks of :data:`CHUNK` pairs, which bounds the gathers'
temporaries; the masks are one :func:`_power_mask` lookup over the call's
operands. A pass serves any number of plans on one operand set, each adding
only its own fault corrections, and its repair swap when its masks are
read. The tables are built on first use, never at import, in pure Python as
``array`` buffers; the engine wraps the same buffers with
``np.frombuffer``, without a copy.

:func:`mul12` and :func:`mul24` run the same rule for one pair on Python
ints, indexing the same ``array`` tables, since numpy's per-call cost would
dominate one pair. Each datapath's tables and the bit offsets of its
halves, groups and quadrants are one record, which one cached builder,
:func:`_tables`, makes once per datapath: the scalar pass reads it, and the
batch engine wraps its buffers, and both look power patterns up through
:func:`_power_mask`. The row sums and group counts are the same for every
datapath, so the records share one of each. A scalar call's faults are
looked at only when one of them is powered, and its plan matches faults and
repairs by their mask bits.
The call's :class:`ActivityReport` keeps its power-pattern mask, repairs and
operands, and is built on first read by walking the mask's powered blocks;
a report never read builds nothing. The scalar calls, :func:`mul4`, the
netlists and the cost model never load numpy, and the block datapath,
batches included, never loads the plan engine, :mod:`cifm._plans`; the
batch functions import numpy when called.
"""

from __future__ import annotations

import functools
import sys
from array import array
from dataclasses import dataclass, field
from enum import Enum
from operator import lshift, or_
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

from .bitcore import (
    BitVec,
    CellKind,
    CellNetlist,
    NetlistBuilder,
    _CELL_FUNCTIONS,
    as_flag,
    as_int,
    deferred_record,
    uint_rows,
    uint_value,
)

__all__ = [
    "Quadrant",
    "ModuleId",
    "FaultSpec",
    "RepairConfig",
    "ActivityReport",
    "MulResult",
    "mul4",
    "mul12",
    "mul24",
    "mul12_batch",
    "mul24_batch",
    "BlockBatch",
    "BLOCK_IDS",
    "GRID_IDS",
    "SPARE_IDS",
    "CHUNK",
    "export_netlist",
    "CostReport",
    "cost_report",
]


class Quadrant(Enum):
    """Which 12x12 module: first letter = a half, second = b half."""

    HH = "HH"
    HL = "HL"
    LH = "LH"
    LL = "LL"

    @property
    def a_high(self) -> bool:
        return self.value[0] == "H"

    @property
    def b_high(self) -> bool:
        return self.value[1] == "H"

    @property
    def shift(self) -> int:
        return 12 * (int(self.a_high) + int(self.b_high))


_QUADRANT_INDEX = {q: k for k, q in enumerate(Quadrant)}


@dataclass(frozen=True)
class ModuleId:
    """Identity of one 4x4 block. Spares carry redundant=True and row=col=0."""

    quadrant: Quadrant
    row: int
    col: int
    redundant: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.quadrant, Quadrant):
            raise ValueError(f"quadrant must be a Quadrant, got {self.quadrant!r}")
        row, col = as_int(self.row, "row"), as_int(self.col, "col")
        redundant = as_flag(self.redundant, "redundant")
        if redundant:
            row, col = 0, 0
        if not (0 <= row <= 2 and 0 <= col <= 2):
            raise ValueError(f"row/col must be in 0..2, got {row},{col}")
        # Stored as Python ints and a bool, so numpy inputs never reach JSON.
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "col", col)
        object.__setattr__(self, "redundant", redundant)
        # Cached, since every faulted or repaired call looks its ids up in
        # _BIT. Built from ints only, so an unpickled id hashes the same in
        # another process.
        key = (_QUADRANT_INDEX[self.quadrant], row, col, redundant)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def spare(cls, quadrant: Quadrant) -> "ModuleId":
        return cls(quadrant, 0, 0, redundant=True)

    def __str__(self) -> str:
        if self.redundant:
            return f"{self.quadrant.value}:spare"
        return f"{self.quadrant.value}:{self.row}:{self.col}"

    def to_json(self) -> dict:
        return {
            "quadrant": self.quadrant.value,
            "row": self.row,
            "col": self.col,
            "redundant": self.redundant,
        }


# Every instantiable id, built once and reused.
GRID_IDS: dict[Quadrant, dict[tuple[int, int], ModuleId]] = {
    q: {(i, j): ModuleId(q, i, j) for i in range(3) for j in range(3)} for q in Quadrant
}
SPARE_IDS: dict[Quadrant, ModuleId] = {q: ModuleId.spare(q) for q in Quadrant}


@dataclass(frozen=True)
class FaultSpec:
    """Forces a block's 8-bit product output to a fixed value."""

    target: ModuleId
    forced_output: BitVec

    def __post_init__(self) -> None:
        if not isinstance(self.target, ModuleId):
            raise ValueError(f"fault target must be a ModuleId, got {self.target!r}")
        if self.target.redundant:
            raise ValueError("faults may only target non-redundant blocks")
        forced = uint_value(self.forced_output, 8, "forced output")
        object.__setattr__(self, "forced_output", BitVec(forced, 8))


@dataclass(frozen=True)
class RepairConfig:
    """Per-quadrant repair control: an enable bit plus the block to replace."""

    enabled: bool = False
    target: ModuleId | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "enabled", as_flag(self.enabled, "enabled"))
        if self.target is not None and not isinstance(self.target, ModuleId):
            raise ValueError(f"repair target must be a ModuleId, got {self.target!r}")
        if self.target is not None and not self.enabled:
            raise ValueError("repair target set while repair is disabled")
        if self.enabled and self.target is None:
            raise ValueError("repair enabled without a target")
        if self.target is not None and self.target.redundant:
            raise ValueError("repair target must be a non-redundant block")


@dataclass(frozen=True)
class ActivityReport:
    """Power bookkeeping: which blocks were energised and which were dark.

    The three sets partition every instantiated block id (spares included).
    power_proxy is simply the number of energised blocks.
    adder_levels_active maps each energised block to how many of its three
    internal adder levels saw a nonzero input net (a standalone 4x4 call has
    no block identity and uses the key None, written as null in JSON).
    The reports of :func:`mul12` and :func:`mul24` are built on first read,
    and compare equal to a report built from the same fields. The hash
    leaves out adder_levels_active, a dict, which == still compares, so
    reports, and the results and traces that hold them, can be hashed.
    """

    active_mul4: frozenset[ModuleId]
    gated_mul4: frozenset[ModuleId]
    disabled_faulty: frozenset[ModuleId]
    adder_levels_active: Mapping[ModuleId | None, int] = field(
        default_factory=dict, hash=False
    )

    @property
    def power_proxy(self) -> int:
        return len(self.active_mul4)

    def to_json(self) -> dict:
        """Each set and the level map sorted by the blocks' ``str``. The 40
        block ids' strs and JSON forms are looked up, not made again; each
        JSON form is a fresh copy, so callers may change what they get."""

        def ids(s: Iterable[ModuleId]) -> list[dict]:
            return [dict(_ID_JSON[m]) for m in sorted(s, key=_ID_STR.__getitem__)]

        return {
            "active": ids(self.active_mul4),
            "gated": ids(self.gated_mul4),
            "disabled_faulty": ids(self.disabled_faulty),
            "power_proxy": self.power_proxy,
            "adder_levels_active": [
                {"block": None if m is None else dict(_ID_JSON[m]), "levels": n}
                for m, n in sorted(
                    self.adder_levels_active.items(), key=lambda kv: _ID_STR[kv[0]]
                )
            ],
        }


@dataclass(frozen=True, init=False)
class MulResult:
    """One product, its activity report and the faults that drove their value.

    The constructor is written out, as :class:`~cifm.bitcore.BitVec`'s is,
    to store the fields without the frozen per-field setter.
    """

    product: BitVec
    activity: ActivityReport
    unrepaired_faults: tuple[ModuleId, ...] = ()

    def __init__(
        self,
        product: BitVec,
        activity: ActivityReport,
        unrepaired_faults: tuple[ModuleId, ...] = (),
    ) -> None:
        fields = self.__dict__
        fields["product"] = product
        fields["activity"] = activity
        fields["unrepaired_faults"] = unrepaired_faults


# ---------------------------------------------------------------------------
# 4x4 block netlist
# ---------------------------------------------------------------------------

def _build_mul4(
    builder: NetlistBuilder,
    a_nets: Sequence[str],
    b_nets: Sequence[str],
    module_id: str | None = None,
) -> list[str]:
    """Instantiate the three-level 4x4 structure; returns 8 product nets.

    Partial products pp[i][j] = a_j & b_i sit at weight i+j. Level 1 adds
    pp0+pp1 and pp2+pp3 in two parallel ripple chains, level 2 merges the
    two sums in parallel low/high blocks, level 3 resolves the remaining
    carry into the high bits.
    """
    pp = [[builder.and2(a_nets[j], b_nets[i], 1, module_id) for j in range(4)]
          for i in range(4)]

    def chain(lo: list[str], hi: list[str]) -> list[str]:
        # lo at weight 0..3, hi at weight 1..4; result bits 0..5
        s1, c = builder.ha(lo[1], hi[0], 1, module_id)
        s2, c = builder.fa(lo[2], hi[1], c, 1, module_id)
        s3, c = builder.fa(lo[3], hi[2], c, 1, module_id)
        s4, c = builder.ha(hi[3], c, 1, module_id)
        return [lo[0], s1, s2, s3, s4, c]

    s01 = chain(pp[0], pp[1])              # bits 0..5
    s23 = chain(pp[2], pp[3])              # bits 2..7 (weight offset 2)

    # level 2: merge s01 + (s23 << 2) in two parallel blocks
    t2, c = builder.ha(s01[2], s23[0], 2, module_id)
    t3, c = builder.fa(s01[3], s23[1], c, 2, module_id)
    t4, c5 = builder.fa(s01[4], s23[2], c, 2, module_id)
    t5, f = builder.ha(s01[5], s23[3], 2, module_id)
    t6, f = builder.ha(s23[4], f, 2, module_id)
    t7, _ = builder.ha(s23[5], f, 2, module_id)   # top carry provably 0

    # level 3: fold the low-block carry into the high bits
    p5, g = builder.ha(t5, c5, 3, module_id)
    p6, g = builder.ha(t6, g, 3, module_id)
    p7, _ = builder.ha(t7, g, 3, module_id)       # top carry provably 0

    return [s01[0], s01[1], t2, t3, t4, p5, p6, p7]


# Truth tables of the 4x4 netlist: product and active adder levels for all
# 256 operand pairs (index b << 4 | a), from its cells' functions on bit
# planes, vector v holding pair v: mul4-exhaustive checks the engine by them.
@functools.cache
def _mul4_tables() -> tuple[list[int], list[int]]:
    nl = export_netlist("mul4")
    pairs = range(1 << 8)
    operands = ([v & 0xF for v in pairs], [v >> 4 for v in pairs])   # buses a, b
    plane = {net: sum(1 << v for v in pairs if x[v] >> k & 1)
             for (_, nets), x in zip(nl.inputs, operands) for k, net in enumerate(nets)}
    seen = [0] * 4          # per adder level: the pairs with a nonzero HA/FA input
    for cell in nl.cells:
        ins = [plane[net] for net in cell.inputs]
        plane.update(zip(cell.outputs, _CELL_FUNCTIONS[cell.kind](*ins)))
        if cell.kind is not CellKind.AND:
            seen[cell.level] |= functools.reduce(or_, ins)
    product = [sum((plane[net] >> v & 1) << k for k, (_, net) in enumerate(nl.outputs))
               for v in pairs]
    levels = [sum(seen[lvl] >> v & 1 for lvl in (1, 2, 3)) for v in pairs]
    return product, levels


def mul4(a: BitVec | int, b: BitVec | int) -> MulResult:
    """Multiply two 4-bit operands through the block netlist's truth table.

    A standalone block has no grid identity, so the activity report carries
    only the adder level count (keyed by None) and an empty block partition.
    """
    x = uint_value(a, 4, "a")
    y = uint_value(b, 4, "b")
    product, levels = _mul4_tables()
    idx = (y << 4) | x
    report = ActivityReport(
        active_mul4=frozenset(),
        gated_mul4=frozenset(),
        disabled_faulty=frozenset(),
        adder_levels_active={None: levels[idx]},
    )
    return MulResult(BitVec(product[idx], 8), report)


# ---------------------------------------------------------------------------
# Batched block engine
# ---------------------------------------------------------------------------

# Bit k of an energised or unrepaired mask stands for BLOCK_IDS[k]: the nine
# grid blocks of each quadrant in Quadrant order, row-major (bit 9*q + 3*row
# + col), then the four spares (bit 36 + q).
BLOCK_IDS: tuple[ModuleId, ...] = tuple(
    GRID_IDS[q][(i, j)] for q in Quadrant for i in range(3) for j in range(3)
) + tuple(SPARE_IDS[q] for q in Quadrant)
_BIT = {m: k for k, m in enumerate(BLOCK_IDS)}

# Each block id's str, which orders the ids of a report's JSON, and its JSON
# form, made once; None is the key of a lone block's levels.
_ID_STR: dict[ModuleId | None, str] = {None: "None", **{m: str(m) for m in BLOCK_IDS}}
_ID_JSON = {m: m.to_json() for m in BLOCK_IDS}


# Operand pairs per pass of _blocks: bounds each (rows x halves x pairs)
# gather to 96 KB, below the C allocator's 128 KB mmap threshold. The power
# masks are not chunked: their one lookup spans the call. A longer call fills
# one products array for all plans, chunk by chunk: a one-plan call with no
# live fault allocates its products and an all-zero unrepaired mask only.
CHUNK = 1024

_MASK48 = (1 << 48) - 1


class BlockBatch:
    """Per-pair results of the block engine, int64 arrays shaped like the operands.

    Built from its three arrays, a batch unpacks in field order, prints and
    pickles as a record of them. A batch from the engine builds its
    ``energised`` masks on first read (:func:`_run_batch`); a batch whose
    masks are never read builds none.
    """

    __slots__ = ("products", "_energised", "unrepaired", "_deferred")
    _fields = ("products", "energised", "unrepaired")

    products: np.ndarray    # mod 2**48 for mul24, 2**24 for mul12
    unrepaired: np.ndarray  # bit k set: faulty BLOCK_IDS[k] drove its forced value

    def __init__(
        self, products: np.ndarray, energised: np.ndarray, unrepaired: np.ndarray
    ) -> None:
        self.products = products
        self._energised = energised
        self.unrepaired = unrepaired

    @property
    def energised(self) -> np.ndarray:
        """Bit k set: BLOCK_IDS[k] was powered."""
        try:
            return self._energised
        except AttributeError:          # an engine batch, read for the first time
            self._energised = masks = self._deferred()
            del self._deferred
            return masks

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter((self.products, self.energised, self.unrepaired))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"BlockBatch({fields})"

    def __reduce__(self):
        return BlockBatch, tuple(self)


def _deferred_batch(
    products: np.ndarray, energised: Callable[[], np.ndarray], unrepaired: np.ndarray
) -> BlockBatch:
    """A BlockBatch whose first read of ``energised`` calls ``energised()``."""
    batch = object.__new__(BlockBatch)
    batch.products, batch._deferred, batch.unrepaired = products, energised, unrepaired
    return batch


class _Fault(NamedTuple):
    """A live, unrepaired fault at block (i, j) of quadrant (ha, hb), on grid row r."""

    bit: int            # its mask bit
    row: int            # r = 3*ha + i, the row sum holding it
    half: int           # hb, the b half of that row sum
    quad: int           # h*ha + hb, its quadrant's place in the quadrant sums
    keep: int           # row-sum index bits of a group r and b group j alone
    shift: int          # 4*i, the weight of row i in the quadrant
    forced: int         # its forced output at weight 4*(i + j)


class _Plan(NamedTuple):
    """One call's faults and repairs, validated and placed on the block grid."""

    faults: tuple[_Fault, ...]          # live, unrepaired faults
    fault_bits: int                     # their mask bits
    repaired: tuple[tuple[ModuleId, int, int], ...]  # (block a spare stands in
                                        # for, its mask bit, the spare's), in bit order


@dataclass(frozen=True, eq=False)
class _Layout:
    """Where one datapath's quadrants sit on the grid of operand groups.

    Grid row r multiplies 4-bit group r of a and column c group c of b, so
    block (i, j) of the quadrant on halves (ha, hb) sits at (3*ha + i,
    3*hb + j). The blocks of row r on b half hb make one row sum, at weight
    4*r + 12*hb. A layout compares and hashes by identity, so it can key
    :func:`_tables` and :func:`_engine`.
    """

    halves: int                       # 12-bit halves per operand
    ids: frozenset[ModuleId]          # every instantiated block, spares included
    quad_bits: Mapping[Quadrant, int]  # mask bits of each placed quadrant's ten blocks
    pos: Mapping[int, tuple[int, int]]  # mask bit -> grid block it multiplies, in bit order


def _layout(placed: Mapping[Quadrant, tuple[int, int]]) -> _Layout:
    halves = 1 + max(max(p) for p in placed.values())
    pos = {}
    for q, (ha, hb) in placed.items():
        for (i, j), mid in GRID_IDS[q].items():
            pos[_BIT[mid]] = (3 * ha + i, 3 * hb + j)
    return _Layout(
        halves=halves,
        ids=frozenset(BLOCK_IDS[b] for q in placed for b in _quad_bits(q)),
        quad_bits={q: sum(1 << b for b in _quad_bits(q)) for q in placed},
        pos=pos,
    )


def _quad_bits(q: Quadrant) -> list[int]:
    return [_BIT[m] for m in GRID_IDS[q].values()] + [_BIT[SPARE_IDS[q]]]


_MUL24 = _layout({q: (int(q.a_high), int(q.b_high)) for q in Quadrant})
_MUL12 = _layout({Quadrant.LL: (0, 0)})
_PLAIN = _Plan((), 0, ())                # no faults, no repairs


@functools.cache
def _row_sums() -> array:
    """Row-sum table of the mul4 truth table: 16 x 4096 int32 entries (256 KB).

    Entry ``a << 12 | b`` is the sum over j of the block product of the
    4-bit group a and group j of the 12-bit half b, at weight 4*j: one row
    of a quadrant's blocks. Built on first use, like the truth table.
    """
    product = _mul4_tables()[0]
    # 256 entries are added at once as the 32-bit lanes of one Python int,
    # laid out as the table's bytes: no entry reaches 2**16, so no carry
    # crosses a lane.
    order = sys.byteorder
    ones = int.from_bytes(array("i", [1] * 256).tobytes(), order)  # 1 in each lane
    table = array("i")
    for a in range(16):
        block = [product[b << 4 | a] for b in range(16)]       # a times each group
        low = array("i", [(hi << 4) + lo for hi in block for lo in block])  # groups 1, 0
        low = int.from_bytes(low.tobytes(), order)
        for top in block:                                       # group 2
            table.frombytes((low + (top << 8) * ones).to_bytes(4 * 256, order))
    return table


class _Tables(NamedTuple):
    """One layout's tables and bit offsets: what :func:`_run_scalar` reads,
    and the ``array`` buffers that :func:`_engine` wraps."""

    sums: array                 # the row-sum table of :func:`_row_sums`
    counts: array               # per 12-bit half x, how many of its groups are powered,
                                # the one table of :func:`_group_counts`
    masks: array                # per power pattern, its energised mask
    halves: tuple[tuple[int, int, int], ...]    # per 12-bit half k: its bit offset
                                # 12*k, and where a's and b's counts sit in a pattern
    quads: tuple[tuple[int, int, int, int], ...]  # per quadrant (ha, hb), at h*ha + hb:
                                # the bit offsets of a's three groups and of b's half
    places: tuple[int, ...]     # per quadrant, the bit offset 12*(ha + hb) of its product


@functools.cache
def _group_counts() -> array:
    """Per 12-bit half x, how many of its 4-bit groups are powered: group i
    is powered when x >> 4*i is non-zero, that is when x >= 16**i (its class
    exceeds 4*i). Every layout's record shares this one table."""
    return array("B", [(x >= 1) + (x >= 16) + (x >= 256) for x in range(1 << 12)])


@functools.cache
def _tables(layout: _Layout) -> _Tables:
    """The record of ``layout``, built on first use: the one builder of its
    masks, which reads the shared builders of the row sums and group counts.

    ``counts`` and ``masks`` state the width checkers' rule. ``counts[x]``
    is how many groups of the 12-bit half x are powered
    (:func:`_group_counts`). A power pattern holds each half's count in 2
    bits, a's halves first, then b's (count k at bit 2*k), and
    ``masks[pattern]`` is its energised mask with no spare in use. Group 0
    of the low half is powered even for zero, since class 4 is the
    narrowest; a zero high half is cut off whole by the outer checker,
    which is the same as all its groups dark. The last pattern powers every
    block, as with gating off.
    """
    h = layout.halves
    masks = array("q")
    for pattern in range(1 << 4 * h):
        groups = [pattern >> 2 * k & 3 for k in range(2 * h)]
        groups[0] = max(groups[0], 1)           # the low halves of a and b
        groups[h] = max(groups[h], 1)
        masks.append(sum(
            1 << bit for bit, (r, c) in layout.pos.items()
            if r % 3 < groups[r // 3] and c % 3 < groups[h + c // 3]
        ))
    return _Tables(
        sums=_row_sums(),
        counts=_group_counts(),
        masks=masks,
        halves=tuple((12 * k, 2 * k, 2 * (h + k)) for k in range(h)),
        quads=tuple((12 * ha, 12 * ha + 4, 12 * ha + 8, 12 * hb)
                    for ha in range(h) for hb in range(h)),
        places=tuple(12 * (ha + hb) for ha in range(h) for hb in range(h)),
    )


class _Engine(NamedTuple):
    """One layout's tables and weights as numpy arrays, for :func:`_blocks`
    and :func:`_power_mask`. The weights are float64, so the sums run in
    BLAS, exactly: every partial sum is an integer below 2**50."""

    sums: np.ndarray            # views of the layout's :func:`_tables` buffers
    counts: np.ndarray
    masks: np.ndarray
    half_shift: np.ndarray      # (h, 1) bit offset 12*h of operand half h
    group_shift: np.ndarray     # (g, 1, 1) 4*r: a << 12 >> 4*r holds group r at bits 12..15
    row_weight: np.ndarray      # (g*h,) 2**(4*r + 12*hb) of row sum (r, hb)
    quad_row_weight: np.ndarray  # (3,) weights of a quadrant's three row sums
    quad_weight: np.ndarray     # (h*h,) 2**(12*(ha + hb)) of quadrant (ha, hb)
    halves: tuple[tuple[int, int, int], ...]    # the record's, for :func:`_power_mask`


@functools.cache
def _engine(layout: _Layout) -> _Engine:
    """The batch engine's arrays for ``layout``: the tables are wrapped, not copied."""
    import numpy as np

    t = _tables(layout)
    r = np.arange(3 * layout.halves)
    h = np.arange(layout.halves)
    return _Engine(
        sums=np.frombuffer(t.sums, dtype=np.intc),
        counts=np.frombuffer(t.counts, dtype=np.uint8),
        masks=np.frombuffer(t.masks, dtype=np.int64),
        half_shift=12 * h[:, None],
        group_shift=4 * r[:, None, None],
        row_weight=2.0 ** (4 * r[:, None] + 12 * h[None, :]).ravel(),
        quad_row_weight=np.array([1.0, 2.0 ** 4, 2.0 ** 8]),
        quad_weight=2.0 ** (12 * (h[:, None] + h[None, :])).ravel(),
        halves=t.halves,
    )


def _plan(
    layout: _Layout,
    faults: Sequence[FaultSpec],
    repairs: Iterable[ModuleId],
    gating: bool,
) -> _Plan:
    """Validate faults against the layout and route repairs to the spares.

    Runs once per call, whichever quadrants the operands would switch on.
    Also rejects a ``gating`` that is not a bool, and ``faults`` that is not
    an iterable of FaultSpec, with ValueError. An empty tuple or list of
    faults with no repair, the default, is the plain plan at once. Faults
    and repair targets are matched by their mask bits.
    """
    as_flag(gating, "gating")
    if type(faults) in (tuple, list) and not faults and not repairs:
        return _PLAIN
    try:
        faults = tuple(faults)
    except TypeError:
        raise ValueError(
            f"faults must be a sequence of FaultSpec, got {type(faults).__name__}"
        ) from None
    forced: dict[int, int] = {}         # mask bit -> forced value
    for f in faults:
        if not isinstance(f, FaultSpec):
            raise ValueError(f"faults must hold FaultSpec, got {f!r}")
        if f.target.quadrant not in layout.quad_bits:
            (quadrant,) = layout.quad_bits
            raise ValueError(
                f"fault target {f.target} is outside quadrant {quadrant.value}"
            )
        bit = _BIT[f.target]
        if bit in forced:
            raise ValueError(f"duplicate fault target {f.target}")
        forced[bit] = f.forced_output.value
    targets = sorted(map(_BIT.__getitem__, repairs))
    if not forced and not targets:
        return _PLAIN
    # each target's quadrant q = t // 9 has its spare at bit 36 + q
    repaired = tuple([(BLOCK_IDS[t], t, 36 + t // 9) for t in targets])
    placed, fault_bits = [], 0
    for bit in sorted(forced):
        if bit in targets:
            continue
        r, c = layout.pos[bit]
        i, j = r % 3, c % 3
        placed.append(_Fault(
            bit, r, c // 3, layout.halves * (r // 3) + c // 3,
            0xF000 | 0xF << 4 * j, 4 * i, forced[bit] << 4 * (i + j),
        ))
        fault_bits |= 1 << bit
    return _Plan(tuple(placed), fault_bits, repaired)


def _plan24(
    faults: Sequence[FaultSpec],
    repair: Mapping[Quadrant, RepairConfig] | None,
    gating: bool,
) -> _Plan:
    if repair is None:
        return _plan(_MUL24, faults, (), gating)
    if not isinstance(repair, Mapping):
        raise ValueError(
            f"repair must map Quadrant to RepairConfig, got {type(repair).__name__}"
        )
    targets = []
    for q, cfg in repair.items():
        if not isinstance(q, Quadrant) or not isinstance(cfg, RepairConfig):
            raise ValueError(f"repair must map Quadrant to RepairConfig, got {q!r}: {cfg!r}")
        if cfg.target is not None:
            if cfg.target.quadrant is not q:
                raise ValueError(f"repair target {cfg.target} filed under {q.value}")
            targets.append(cfg.target)
    return _plan(_MUL24, faults, targets, gating)


def _plan12(faults: Sequence[FaultSpec], repair: RepairConfig, gating: bool) -> _Plan:
    if not isinstance(repair, RepairConfig):
        raise ValueError(f"repair must be a RepairConfig, got {repair!r}")
    target = repair.target
    if target is not None and target.quadrant is not Quadrant.LL:
        raise ValueError(f"repair target {target} is outside quadrant LL")
    return _plan(_MUL12, faults, () if target is None else (target,), gating)


def _blocks(
    layout: _Layout, plans: Sequence[_Plan], ab: np.ndarray, powered: np.ndarray | None
) -> Iterator[np.ndarray]:
    """One engine pass over a (2, n) array of operand pairs, for all ``plans``.

    Yields each plan's products, its own array. One gather of the row-sum
    table gives every (a group, b half) row of blocks. A gated block's
    operand group is zero, so its product is zero and the row sums need no
    gating, and no plan's products depend on which blocks are powered but
    through its live faults. ``powered`` holds the pairs' energised masks
    with no spare in use, which a plan with a live fault reads, or None
    when no plan has one. A live fault's block is never a repair target, so
    its mask bit is the same with the plan's spares in use. Each live fault
    that is powered adds its forced value minus the true block product to
    its quadrant, which then sums modulo 2**24; without one, no quadrant can
    wrap. Only the fault corrections are made per plan.
    """
    import numpy as np

    e = _engine(layout)
    n = ab.shape[1]
    h = layout.halves
    # every index is in range, so "wrap" never wraps: it only skips the bounds check
    index = (ab[0] << 12 >> e.group_shift & 0xF000) | (ab[1] >> e.half_shift & 0xFFF)
    sums = e.sums.take(index, mode="wrap")                           # (g, h, n)
    plain = quads = None
    last = len(plans) - 1
    for k, plan in enumerate(plans):
        # later plans read the shared arrays again: only the last may keep them
        if not plan.faults:
            if plain is None:
                plain = (e.row_weight @ sums.reshape(-1, n)).astype(np.int64)
            yield plain.copy() if k < last else plain
            continue
        if quads is None:
            quads = (e.quad_row_weight @ sums.reshape(h, 3, h * n)).astype(np.int64)
            quads = quads.reshape(h * h, n)
        faulty = quads.copy() if k < last else quads
        for f in plan.faults:
            # the row sum of a group r and b group j alone is the true block product
            # at weight 4*j; in int32, as every value here is below 256 << 16
            wrong = f.forced - (e.sums.take(index[f.row, f.half] & f.keep, mode="wrap")
                                << f.shift)
            faulty[f.quad] += wrong * (powered >> f.bit & 1)
        yield (e.quad_weight @ (faulty & 0xFFFFFF)).astype(np.int64) & _MASK48


def _run_batch(
    layout: _Layout, plans: Sequence[_Plan], ab: np.ndarray, shape: tuple[int, ...],
    gating: bool,
) -> Iterator[BlockBatch]:
    """Each plan's BlockBatch: its products from :func:`_blocks`, run chunk
    by chunk, and its masks. A one-chunk call yields each batch as it is
    made; a longer one fills one products array for all plans first.

    The call's energised masks with no spare in use come from one
    :func:`_power_mask` lookup over its whole operand stack ``ab``, which
    all its plans share, or are the all-on mask with gating off, which needs
    no lookup. The lookup runs in the call when a plan has a live fault,
    whose corrections and unrepaired mask read it; otherwise on the first
    read of any plan's ``energised``, and not at all if none is read. A plan
    with no live fault has an all-zero unrepaired mask. Each plan's
    ``energised`` is built on its first read, in its own array, from the
    shared masks and its own repair swaps: each powered repaired target
    hands its mask bit to its spare. ``ab`` is the call's own copy, so a
    caller that changes its operands afterwards changes no mask.
    """
    import numpy as np

    n = ab.shape[1]
    shared = []                         # the call's masks, once looked up

    def powered() -> np.ndarray:
        if not shared:
            e = _engine(layout)
            shared.append(_power_mask(e, *ab) if gating else np.full(n, e.masks[-1]))
        return shared[0]

    live = powered() if any(plan.faults for plan in plans) else None
    if 0 < n <= CHUNK:
        products = _blocks(layout, plans, ab, live)
    else:
        products = np.empty((len(plans), n), dtype=np.int64)
        for lo in range(0, n, CHUNK):
            chunk = slice(lo, lo + CHUNK)
            part = None if live is None else live[chunk]
            for k, row in enumerate(_blocks(layout, plans, ab[:, chunk], part)):
                products[k, chunk] = row
    for plan, row in zip(plans, products):
        unrepaired = live & plan.fault_bits if plan.faults else np.zeros(n, dtype=np.int64)
        energised = functools.partial(_energised, powered, plan.repaired, shape)
        yield _deferred_batch(row.reshape(shape), energised, unrepaired.reshape(shape))


def _energised(
    powered: Callable[[], np.ndarray], repaired: tuple, shape: tuple[int, ...]
) -> np.ndarray:
    """One plan's energised masks: a copy of the call's masks, which its
    other plans read too, with the plan's repair swaps."""
    masks = powered().copy()
    for _, target, spare in repaired:
        masks ^= (masks >> target & 1) * (1 << target | 1 << spare)
    return masks.reshape(shape)


def _power_mask(t: _Tables | _Engine, x, y):
    """The energised mask of the pair ``x``, ``y`` with no spare in use: the
    power pattern of their halves' group counts, looked up in ``t.masks``;
    :func:`_tables` states the rule. The scalar pass and its report call it
    on the record with ints, and get an int; the batch engine calls it once
    per call on the :func:`_engine` views with the operand stack's int64
    rows, and gets int64 masks through O(n) temporaries, as the operand
    check makes.
    A pattern has at most 8 bits, so it stays in the uint8 of the counts."""
    counts = t.counts
    pattern = 0
    for at, a_shift, b_shift in t.halves:
        pattern |= counts[x >> at & 0xFFF] << a_shift | counts[y >> at & 0xFFF] << b_shift
    return t.masks[pattern]


def _report(layout: _Layout, mask: int | None, repaired: tuple, x: int, y: int) -> dict:
    """The ActivityReport fields of one scalar call, from its power-pattern mask.

    ``mask`` is the call's power pattern with no spare in use, or None when
    the call did not need it: then :func:`_power_mask` looks it up from the
    operands here, on the report's first read. Its set bits, walked in
    ascending order through the layout's grid positions, give the powered
    blocks, and each block's adder levels come from the mul4 table at its
    operand groups. A repaired call reports each powered target under its
    spare, the spares last, and reports a target disabled when any block of
    its quadrant is powered. Every other block of the layout is gated.
    """
    if mask is None:
        mask = _power_mask(_tables(layout), x, y)
    table = _mul4_tables()[1]
    levels = {
        BLOCK_IDS[k]: table[(y >> 4 * c & 0xF) << 4 | x >> 4 * r & 0xF]
        for k, (r, c) in layout.pos.items()     # in mask bit order
        if mask >> k & 1
    }
    disabled = frozenset(t for t, _, _ in repaired if mask & layout.quad_bits[t.quadrant])
    for t, _, _ in repaired:            # in bit order, so the spares come last
        if t in levels:
            levels[SPARE_IDS[t.quadrant]] = levels.pop(t)
    active = frozenset(levels)
    return {
        "active_mul4": active,
        "gated_mul4": layout.ids - active - disabled,
        "disabled_faulty": disabled,
        "adder_levels_active": levels,
    }


# The engine's scalar report: it keeps _report's inputs and calls it on first read.
_deferred_report = deferred_record(ActivityReport, _report)


def _run_scalar(
    layout: _Layout, plan: _Plan, x: int, y: int, gating: bool
) -> tuple[int, ActivityReport, tuple[ModuleId, ...]]:
    """One pair through the engine's tables on Python ints, and its ActivityReport.

    The same rule as :func:`_blocks`, for one pair: the power pattern of the
    operand halves picks the energised mask, three row sums make each
    quadrant, each powered live fault adds its forced value minus the true
    block product to its quadrant, and the quadrants sum modulo 2**24 each.
    Everything it reads of the layout comes from the one cached record
    (:func:`_tables`): the ``array`` tables that :func:`_engine` wraps, which
    give Python ints, and the bit offsets of each half, group and quadrant.
    A fault-free product does not depend on the power pattern, so the call
    looks it up (:func:`_power_mask`) only when the plan has a live fault,
    and looks at the faults only when one of them is powered. With gating
    off the mask is the last, all-on one, which needs no lookup. The report
    keeps the mask, or None when the call did not look it up, with the
    repairs and the operands, and :func:`_report` builds it from them when
    it is first read.
    """
    t = _tables(layout)
    sums = t.sums
    if not gating:
        mask = t.masks[-1]
    elif plan.fault_bits:
        mask = _power_mask(t, x, y)
    else:
        mask = None
    # xs >> 4*r & 0xF000 is a's group r, where a row-sum index holds it
    xs = x << 12
    quads = []
    for a0, a1, a2, at in t.quads:
        yh = y >> at & 0xFFF
        quads.append(sums[xs >> a0 & 0xF000 | yh] + (sums[xs >> a1 & 0xF000 | yh] << 4)
                     + (sums[xs >> a2 & 0xF000 | yh] << 8))
    faulty = ()
    live = plan.fault_bits and mask & plan.fault_bits
    if live:                            # only a faulted quadrant can wrap
        powered = []
        for f in plan.faults:           # in mask bit order
            if live >> f.bit & 1:
                index = (xs >> 4 * f.row & 0xF000 | y >> 12 * f.half & 0xFFF) & f.keep
                quads[f.quad] = quads[f.quad] + f.forced - (sums[index] << f.shift) & 0xFFFFFF
                powered.append(BLOCK_IDS[f.bit])
        faulty = tuple(powered)
    product = sum(map(lshift, quads, t.places))
    report = _deferred_report(layout, mask, plan.repaired, x, y)
    return product & _MASK48, report, faulty


# ---------------------------------------------------------------------------
# 12x12 quadrant module and 24x24 top level
# ---------------------------------------------------------------------------

_DATAPATHS = {12: (_MUL12, _plan12), 24: (_MUL24, _plan24)}     # by operand width


def _batches(
    width: int, a, b, setups: Iterable[tuple], gating: bool = True
) -> Iterator[BlockBatch]:
    """What ``mul{width}_batch`` gives for each ``(faults, repair)`` of
    ``setups``, from one engine pass. Checks all arguments before it returns:
    the operands must be ``width``-bit and of one shape."""
    import numpy as np

    if np.shape(a) != np.shape(b):
        raise ValueError(f"a and b differ in shape: {np.shape(a)} vs {np.shape(b)}")
    layout, plan = _DATAPATHS[width]
    ab, shape = uint_rows((a, b), (width, width), "ab".__getitem__)
    plans = [plan(faults, repair, gating) for faults, repair in setups]
    return _run_batch(layout, plans, ab, shape, gating)


def mul12_batch(
    a,
    b,
    faults: Sequence[FaultSpec] = (),
    repair: RepairConfig = RepairConfig(),
    *,
    gating: bool = True,
) -> BlockBatch:
    """:func:`mul12` over integer arrays of 12-bit operands."""
    (batch,) = _batches(12, a, b, [(faults, repair)], gating)
    return batch


def mul24_batch(
    a,
    b,
    faults: Sequence[FaultSpec] = (),
    repair: Mapping[Quadrant, RepairConfig] | None = None,
    *,
    gating: bool = True,
) -> BlockBatch:
    """:func:`mul24` over integer arrays of 24-bit operands."""
    (batch,) = _batches(24, a, b, [(faults, repair)], gating)
    return batch


def mul12(
    a: BitVec | int,
    b: BitVec | int,
    faults: Sequence[FaultSpec] = (),
    repair: RepairConfig = RepairConfig(),
    *,
    gating: bool = True,
) -> MulResult:
    """Multiply two 12-bit operands as one quadrant module.

    A standalone quadrant is quadrant LL: fault and repair targets must lie
    in it, or ValueError is raised. So must ``faults`` that are not
    FaultSpecs, a ``repair`` that is not a RepairConfig and a ``gating``
    that is not a bool.
    """
    x = uint_value(a, 12, "a")
    y = uint_value(b, 12, "b")
    plan = _plan12(faults, repair, gating)
    product, report, unrepaired = _run_scalar(_MUL12, plan, x, y, gating)
    return MulResult(BitVec(product, 24), report, unrepaired)


def mul24(
    a: BitVec | int,
    b: BitVec | int,
    faults: Sequence[FaultSpec] = (),
    repair: Mapping[Quadrant, RepairConfig] | None = None,
    *,
    gating: bool = True,
) -> MulResult:
    """Multiply two 24-bit operands across the four quadrant modules.

    Outer checkers gate the HH/HL/LH quadrants whenever the corresponding
    operand half is all zero (class 12 over [12, 24]); inner per-quadrant
    checkers then gate individual blocks. A fully gated quadrant is dark:
    faults in it are invisible and its repair configuration is moot.
    ``faults`` that are not FaultSpecs, a ``repair`` that does not map
    Quadrant to RepairConfig and a ``gating`` that is not a bool raise
    ValueError.
    """
    x = uint_value(a, 24, "a")
    y = uint_value(b, 24, "b")
    plan = _plan24(faults, repair, gating)
    product, report, unrepaired = _run_scalar(_MUL24, plan, x, y, gating)
    return MulResult(BitVec(product, 48), report, unrepaired)


# ---------------------------------------------------------------------------
# Structural netlists for the composed datapaths
# ---------------------------------------------------------------------------

def _add_shifted(
    builder: NetlistBuilder, acc: list[str], addend: Sequence[str], shift: int
) -> list[str]:
    """Ripple-add ``addend << shift`` into ``acc`` (lists of nets, LSB first).

    Positions where only one operand has a bit are plain wires; a final
    carry extends the result by one net.
    """
    result = list(acc[:shift])
    carry: str | None = None
    top = max(len(acc), shift + len(addend))
    for pos in range(shift, top):       # acc or addend has a bit at each pos
        ops = []
        if pos < len(acc):
            ops.append(acc[pos])
        if 0 <= pos - shift < len(addend):
            ops.append(addend[pos - shift])
        if carry is not None:
            ops.append(carry)
        if len(ops) == 3:
            s, carry = builder.fa(*ops)
            result.append(s)
        elif len(ops) == 2:
            s, carry = builder.ha(*ops)
            result.append(s)
        else:                           # one bit and no carry: a plain wire
            result.append(ops[0])
    if carry is not None:
        result.append(carry)
    return result


def _build_mul12(
    builder: NetlistBuilder,
    a_nets: Sequence[str],
    b_nets: Sequence[str],
    quadrant: Quadrant,
) -> list[str]:
    """Nine 4x4 blocks plus the weighted block-product sum; 24 product nets."""
    acc: list[str] = []
    for (i, j), mid in GRID_IDS[quadrant].items():
        a4, b4 = a_nets[4 * i : 4 * i + 4], b_nets[4 * j : 4 * j + 4]
        pp = _build_mul4(builder, a4, b4, str(mid))
        acc = _add_shifted(builder, acc, pp, 4 * (i + j))
    return acc[:24]


# Each level's operand width and its quadrants in netlist order (mul4: one block).
_NETLIST_LEVELS = {
    "mul4": (4, ()),
    "mul12": (12, (Quadrant.LL,)),
    "mul24": (24, (Quadrant.LL, Quadrant.HL, Quadrant.LH, Quadrant.HH)),
}


@functools.cache
def _netlist(level: str) -> CellNetlist:
    width, quadrants = _NETLIST_LEVELS[level]
    b = NetlistBuilder()
    a_nets = b.input_bus("a", width)
    b_nets = b.input_bus("b", width)
    p = _build_mul4(b, a_nets, b_nets) if width == 4 else []
    for quad in quadrants:
        lo_a, lo_b = 12 * quad.a_high, 12 * quad.b_high
        pp = _build_mul12(b, a_nets[lo_a : lo_a + 12], b_nets[lo_b : lo_b + 12], quad)
        p = _add_shifted(b, p, pp, quad.shift)
    b.set_outputs("p", p[: 2 * width])
    return b.build()


def export_netlist(level: str) -> CellNetlist:
    """The full structural datapath netlist for 'mul4', 'mul12' or 'mul24'.

    This is the bare multiplier array: checkers, gating switches and repair
    routing are control logic around it and are accounted separately by
    :func:`cost_report`. Each level is built once; any other ``level``
    raises ValueError.
    """
    if not isinstance(level, str) or level not in _NETLIST_LEVELS:
        raise ValueError(f"unknown netlist level {level!r}")
    return _netlist(level)


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

# Unit-cost accounting for the control logic that the reconfigurable build
# adds around the bare datapath. Primitive counts (each = 1 cell):
#   zero-detect of an n-bit group: (n-1) OR cells + 1 inverter
#   width checker over [4,8,12]:   two group detects + 3 class-encode cells
#   outer checker over [12,24]:    one 12-bit group detect
#   power switch: 1 cell per gateable block (spares included)
#   repair: per quadrant, a 9-way target decode, operand steering onto the
#     spare (2 operands x 4 bits x 8 mux cells), per-bit product
#     substitution (9 blocks x 8 bits) and 1 repair-enable cell
_ZERO4 = 3 + 1
_ZERO12 = 11 + 1
_CHECKER12 = 2 * _ZERO4 + 3
_CHECKER12_DEPTH = 3 + 1            # OR tree depth 2 + inverter + encode
_REPAIR_PER_QUADRANT = 9 + 2 * 4 * 8 + 9 * 8 + 1    # decode, steering, substitution, enable


@dataclass(frozen=True)
class CostReport:
    """Deterministic cell-count / unit-delay summary for one datapath build."""

    level: str
    with_features: bool
    datapath_cells: int
    feature_cells: int
    unit_delay: int

    @property
    def cells(self) -> int:
        return self.datapath_cells + self.feature_cells

    def to_json(self) -> dict:
        return {
            "circuit": self.level,
            "with_features": self.with_features,
            "cells": self.cells,
            "datapath_cells": self.datapath_cells,
            "feature_cells": self.feature_cells,
            "unit_delay": self.unit_delay,
        }


def cost_report(level: str, with_features: bool = False) -> CostReport:
    """Cell count and unit delay, optionally including checker/repair logic.

    The feature overhead never changes the product: checkers only gate
    blocks whose operand groups are zero, and the spare computes exactly
    what the replaced block would have.
    """
    as_flag(with_features, "with_features")
    nl = export_netlist(level)
    base = nl.cell_count()
    delay = nl.unit_delay()
    if not with_features:
        return CostReport(level, False, base, 0, delay)
    if level == "mul4":
        # per-level activity detects plus one power switch per level
        extra = 3 * (7 + 1)
        return CostReport(level, True, base, extra, delay + 1)
    spare = export_netlist("mul4").cell_count()     # one idle 4x4 block
    per_quadrant = 2 * _CHECKER12 + 10 + _REPAIR_PER_QUADRANT + spare
    if level == "mul12":
        return CostReport(level, True, base, per_quadrant, delay + _CHECKER12_DEPTH + 1)
    extra = 4 * per_quadrant + 2 * _ZERO12 + 4
    return CostReport(level, True, base, extra, delay + _CHECKER12_DEPTH + 2)
