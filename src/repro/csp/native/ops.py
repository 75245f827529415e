"""Flat-plane construction and ctypes wrappers for the native kernel.

:class:`NativeKernel` lowers a :class:`~repro.csp.compiled.CompiledNetwork`
into the plain C-friendly arrays ``kernel.c`` operates on -- CSR
directed-arc tables and multiword uint64 support rows -- using the
stdlib ``array`` module (no numpy dependency; pointers come from
``array.buffer_info()``).  The lowering is cached on the compiled
kernel (``_native_cache``, excluded from
pickling) so repeated solves on one network pay for it once.

The wrapper functions return plain Python data (masks as ints, values
as lists, counters as ints); the solver modules construct their result
objects, which keeps the import graph acyclic.

Layout contract shared with kernel.c:

* ``nwords = ceil(max_domain / 64)`` words per domain-mask row,
  uniform across the network;
* arc ``a`` (source ``arc_src[a]``, destination ``arc_dst[a]``) keeps
  its support block at word offset ``sup_off[a]``: ``dom[src]`` rows
  of ``nwords`` words, row ``value`` the little-endian bitmask of
  supported destination values (identical bit layout to the compiled
  kernel's int masks);
* ``arc_rev[a]`` is the opposite-orientation arc's id, ``seed_arcs``
  the AC-3 seeding order (both orientations of every authored pair);
* ``lcv[a * max_domain + value]`` is the popcount of arc ``a``'s
  support row ``value`` (the least-constraining-value scores).
"""

from __future__ import annotations

import ctypes
from array import array

from repro.csp.compiled import CompiledNetwork, as_compiled
from repro.csp.native import build

#: Deadline sentinel handed to C (negative means "none").
_NO_DEADLINE = -1.0


def _addr(arr: array) -> int:
    return arr.buffer_info()[0]


def _prototype(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare argument/return types once per loaded library."""
    if getattr(lib, "_repro_prototyped", False):
        return lib
    i64, f64, p = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.repro_ac3.restype = ctypes.c_int32
    lib.repro_ac3.argtypes = [i64, i64, p, p, p, p, p, p, p, p, i64, p, p]
    lib.repro_fc_search.restype = ctypes.c_int32
    lib.repro_fc_search.argtypes = [
        i64, i64, p, p, p, p, p, p, p, p, p, i64, i64, f64, p,
    ]
    lib.repro_mc_solve.restype = ctypes.c_int32
    lib.repro_mc_solve.argtypes = [
        i64, i64, p, p, p, p, p, p, i64, i64, i64, f64, p, p,
    ]
    lib.repro_bt_search.restype = ctypes.c_int32
    lib.repro_bt_search.argtypes = [
        i64, i64, i64, p, p, p, p, p, p, p, p, i64, i64, i64, p, i64, i64,
        f64, p, p,
    ]
    lib._repro_prototyped = True
    return lib


class NativeKernel:
    """The compiled network lowered to flat C-facing planes."""

    def __init__(self, kernel: CompiledNetwork):
        self.lib = _prototype(build.load_library())
        count = kernel.variable_count
        doms = [kernel.domain_size(i) for i in range(count)]
        max_domain = max(doms, default=0)
        self.count = count
        self.max_domain = max_domain
        self.nwords = max(1, (max_domain + 63) // 64)

        arc_src: list[int] = []
        arc_dst: list[int] = []
        arc_base = [0]
        slot: dict[tuple[int, int], int] = {}
        for i in range(count):
            for j in kernel.neighbors[i]:
                slot[(i, j)] = len(arc_dst) - arc_base[i]
                arc_src.append(i)
                arc_dst.append(j)
            arc_base.append(len(arc_dst))

        def arc_id(target: int, source: int) -> int:
            return arc_base[target] + slot[(target, source)]

        row_bytes = self.nwords * 8
        sup_off: list[int] = []
        sup_raw = bytearray()
        lcv: list[int] = []
        for a in range(len(arc_dst)):
            masks = kernel.supports[(arc_src[a], arc_dst[a])]
            sup_off.append(len(sup_raw) // 8)
            for mask in masks:
                sup_raw += mask.to_bytes(row_bytes, "little")
                lcv.append(mask.bit_count())
            lcv.extend([0] * (max_domain - len(masks)))

        seed_arcs: list[int] = []
        seeded: set[int] = set()
        for first, second in kernel.pairs:
            for target, source in ((first, second), (second, first)):
                a = arc_id(target, source)
                if a not in seeded:
                    seeded.add(a)
                    seed_arcs.append(a)

        self.dom = array("q", doms)
        self.degrees = array("q", [len(kernel.neighbors[i]) for i in range(count)])
        self.rank = array("q", kernel.name_rank)
        self.arc_base = array("q", arc_base)
        self.arc_src = array("q", arc_src)
        self.arc_dst = array("q", arc_dst)
        self.arc_rev = array(
            "q", [arc_id(arc_dst[a], arc_src[a]) for a in range(len(arc_dst))]
        )
        self.sup_off = array("q", sup_off)
        self.sup = array("Q")
        self.sup.frombytes(bytes(sup_raw))
        self.lcv = array("q", lcv)
        self.seed_arcs = array("q", seed_arcs)

    # -- mask conversions -------------------------------------------------

    def masks_to_words(self, masks) -> array:
        """Python-int domain masks -> one flat uint64 word array."""
        row_bytes = self.nwords * 8
        raw = bytearray()
        for mask in masks:
            raw += mask.to_bytes(row_bytes, "little")
        words = array("Q")
        words.frombytes(bytes(raw))
        return words

    def words_to_masks(self, words: array) -> list[int]:
        """The inverse: flat word rows -> per-variable int masks."""
        raw = words.tobytes()
        stride = self.nwords * 8
        return [
            int.from_bytes(raw[i * stride : (i + 1) * stride], "little")
            for i in range(self.count)
        ]


def as_native(network) -> NativeKernel:
    """The native planes of a network, cached on its compiled kernel.

    Raises:
        RuntimeError: when the native library cannot be built/loaded.
    """
    kernel = as_compiled(network)
    cached = getattr(kernel, "_native_cache", None)
    if cached is not None:
        return cached
    native = NativeKernel(kernel)
    kernel._native_cache = native
    return native


def _seed_key(seed: int) -> "ctypes.Array":
    """CPython's init_by_array key: abs(seed) as 32-bit LE limbs."""
    n = abs(int(seed))
    if n == 0:
        return (ctypes.c_uint32 * 1)(0)
    words = []
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return (ctypes.c_uint32 * len(words))(*words)


# -- solver entry points --------------------------------------------------


def ac3(kernel: CompiledNetwork):
    """Whole-run native AC-3.

    Returns ``(consistent, masks, revisions, removed)`` with ``masks``
    the per-variable surviving-domain ints (partial on a wipe-out,
    matching the bitset engine's early return).
    """
    nk = as_native(kernel)
    masks = nk.masks_to_words(kernel.full_masks)
    out = array("q", [0, 0])
    status = nk.lib.repro_ac3(
        nk.count,
        nk.nwords,
        _addr(nk.dom),
        _addr(nk.arc_base),
        _addr(nk.arc_src),
        _addr(nk.arc_dst),
        _addr(nk.arc_rev),
        _addr(nk.sup_off),
        _addr(nk.sup),
        _addr(nk.seed_arcs),
        len(nk.seed_arcs),
        _addr(masks),
        _addr(out),
    )
    if status < 0:  # pragma: no cover - allocation failure
        raise MemoryError("native AC-3 could not allocate its queue")
    return bool(status), nk.words_to_masks(masks), out[0], out[1]


#: repro_fc_search / repro_bt_search outcome codes.
SEARCH_EXHAUSTED = 0
SEARCH_FOUND = 1
SEARCH_CUTOFF = 2


def fc_search(
    kernel: CompiledNetwork,
    values,
    domains,
    assigned: int,
    max_nodes: int | None,
    deadline_at: float | None,
):
    """Whole forward-checking search from a (values, domains) snapshot.

    Returns ``(status, values, nodes, backtracks, checks)`` where
    ``status`` is one of the ``SEARCH_*`` codes and ``values`` holds the
    solution indices when found (None otherwise).
    """
    nk = as_native(kernel)
    vals = array("q", [-1 if v is None else v for v in values])
    masks = nk.masks_to_words(domains)
    out = array("q", [0, 0, 0])
    status = nk.lib.repro_fc_search(
        nk.count,
        nk.nwords,
        _addr(nk.dom),
        _addr(nk.degrees),
        _addr(nk.rank),
        _addr(nk.arc_base),
        _addr(nk.arc_dst),
        _addr(nk.sup_off),
        _addr(nk.sup),
        _addr(masks),
        _addr(vals),
        assigned,
        -1 if max_nodes is None else max_nodes,
        _NO_DEADLINE if deadline_at is None else deadline_at,
        _addr(out),
    )
    if status < 0:  # pragma: no cover - allocation failure
        raise MemoryError("native forward checking could not allocate")
    solution = vals.tolist() if status == SEARCH_FOUND else None
    return status, solution, out[0], out[1], out[2]


#: SearchEngine jump rules, in kernel.c's BT_* code order.
_JUMP_MODES = ("chronological", "graph", "conflict")


def bt_search(kernel: CompiledNetwork, config, deadline_at: float | None):
    """The whole base/enhanced/CBJ search of one ``EngineConfig``.

    Returns ``(status, values, nodes, backtracks, backjumps, checks)``
    where ``status`` is one of the ``SEARCH_*`` codes and ``values``
    holds the solution indices when found (None otherwise).
    """
    nk = as_native(kernel)
    vals = array("q", [-1] * nk.count)
    out = array("q", [0, 0, 0, 0])
    key = _seed_key(config.seed)
    status = nk.lib.repro_bt_search(
        nk.count,
        nk.nwords,
        nk.max_domain,
        _addr(nk.dom),
        _addr(nk.degrees),
        _addr(nk.rank),
        _addr(nk.arc_base),
        _addr(nk.arc_dst),
        _addr(nk.sup_off),
        _addr(nk.sup),
        _addr(nk.lcv),
        config.variable_ordering,
        config.value_ordering,
        _JUMP_MODES.index(config.jump_mode),
        ctypes.addressof(key),
        len(key),
        -1 if config.max_nodes is None else config.max_nodes,
        _NO_DEADLINE if deadline_at is None else deadline_at,
        _addr(vals),
        _addr(out),
    )
    if status < 0:  # pragma: no cover - allocation failure
        raise MemoryError("native backtracking search could not allocate")
    solution = vals.tolist() if status == SEARCH_FOUND else None
    return status, solution, out[0], out[1], out[2], out[3]


def min_conflicts(
    kernel: CompiledNetwork,
    seed: int,
    max_steps: int,
    max_restarts: int,
    deadline_at: float | None,
):
    """The full min-conflicts walk for one seed.

    Returns ``(values, nodes, checks, restarts)``; ``values`` is None
    when the walk gave up.
    """
    nk = as_native(kernel)
    vals = array("q", [0] * nk.count) if nk.count else array("q")
    out = array("q", [0, 0, 0])
    key = _seed_key(seed)
    status = nk.lib.repro_mc_solve(
        nk.count,
        nk.nwords,
        _addr(nk.dom),
        _addr(nk.arc_base),
        _addr(nk.arc_dst),
        _addr(nk.sup_off),
        _addr(nk.sup),
        ctypes.addressof(key),
        len(key),
        max_steps,
        max_restarts,
        _NO_DEADLINE if deadline_at is None else deadline_at,
        _addr(vals),
        _addr(out),
    )
    if status < 0:  # pragma: no cover - allocation failure
        raise MemoryError("native min-conflicts could not allocate")
    solution = vals.tolist() if status == 1 else None
    return solution, out[0], out[1], out[2]
