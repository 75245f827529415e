"""Engine resolution: which propagation kernel runs a solver call.

Every solver takes an ``engine=`` spec.  Two engines exist, and they
are *parity-preserving*: identical RNG streams, effort counters and
returned solutions, byte for byte.

* ``bitset``: the pure-Python loops over the
  :class:`~repro.csp.compiled.CompiledNetwork` support bitmasks (the
  reference semantics);
* ``native``: the solver inner loops in C (:mod:`repro.csp.native`),
  compiled on first use with the host compiler.

``auto`` runs a network natively when a compiled kernel is usable and
the network carries at least :data:`NATIVE_MIN_SUPPORT_CELLS` directed
support cells, and on bitsets otherwise.  :func:`batch_min_conflicts`
runs a multi-seed min-conflicts portfolio on either engine.
"""

from __future__ import annotations

import logging
import os
import time
from typing import Sequence

from repro.csp.compiled import CompiledNetwork, as_compiled
from repro.csp.network import ConstraintNetwork
from repro.csp.stats import SolverResult, SolverStats

logger = logging.getLogger(__name__)

#: Engine spec tokens accepted everywhere an ``engine=`` knob exists.
ENGINE_BITSET = "bitset"
ENGINE_NATIVE = "native"
ENGINE_AUTO = "auto"
ENGINES = (ENGINE_AUTO, ENGINE_BITSET, ENGINE_NATIVE)

#: Environment override consulted by ``engine="auto"`` resolution; set
#: to ``bitset`` or ``native`` to force one engine process-wide (the
#: service CLI's ``--engine`` writes this so racing worker processes
#: inherit the choice).  Any other value is ignored.
ENGINE_ENV = "REPRO_CSP_ENGINE"

#: ``auto`` prefers the native C kernel from this many directed
#: support cells up.  Below it, the single ctypes dispatch and the
#: kernel lowering cost more than the pure-Python bitset loops.
NATIVE_MIN_SUPPORT_CELLS = 64


def native_available() -> bool:
    """True when the native C kernel can run in this process.

    The first call may compile the kernel (cached on disk thereafter);
    the loaded-or-failed outcome is memoized by the build module, so
    subsequent engine resolutions cost one function call.
    """
    try:
        from repro.csp.native import build
    except ImportError:  # pragma: no cover - package always ships
        return False
    return build.usable()


#: Degradation keys already logged by :func:`resolve_engine` -- the
#: fleet-wide env override must not spam one warning per solver call
#: on hosts that cannot honor it (each *occurrence* is still counted
#: through the obs layer).
_DEGRADATIONS_WARNED: set[str] = set()


def _degraded(reason: str, message: str, *args) -> None:
    """Count an engine degradation; log it once per process."""
    from repro.obs import metrics as obs_metrics

    obs_metrics.counter(
        "repro_engine_degradations_total",
        labels={"reason": reason},
        help="Engine env-override degradations by reason.",
    )
    if reason not in _DEGRADATIONS_WARNED:
        _DEGRADATIONS_WARNED.add(reason)
        logger.warning(message, *args)


def support_cells(kernel: CompiledNetwork) -> int:
    """Directed support cells: ``|D_i| * |D_j|`` over directed pairs
    (memoized on the kernel, see :attr:`CompiledNetwork.support_cells`)."""
    return kernel.support_cells


def resolve_engine(
    spec: str, network: ConstraintNetwork | CompiledNetwork
) -> str:
    """Resolve an engine spec to ``"bitset"`` or ``"native"``.

    ``auto`` consults the :data:`ENGINE_ENV` environment override
    first, then a size heuristic: networks at or above
    :data:`NATIVE_MIN_SUPPORT_CELLS` directed support cells run on the
    native C kernel when one can be compiled or loaded, and everything
    else stays on bitsets.  An explicit ``"native"`` without a working
    compiler or cached kernel raises; the *environment* override
    degrades to bitset with a single logged warning per process
    instead, so a fleet-wide knob never crashes a host that cannot
    honor it (every degraded call is still counted via the
    ``repro_engine_degradations_total`` obs counter).

    Raises:
        ValueError: for an unknown spec.
        RuntimeError: for an explicit ``"native"`` with no usable
            native kernel.
    """
    if spec not in ENGINES:
        raise ValueError(f"unknown engine {spec!r}; pick one of {ENGINES}")
    if spec == ENGINE_AUTO:
        override = os.environ.get(ENGINE_ENV, "").strip().lower()
        if override == ENGINE_BITSET:
            return ENGINE_BITSET
        if override == ENGINE_NATIVE:
            if native_available():
                return ENGINE_NATIVE
            _degraded(
                "native-unusable",
                "%s=native but no native kernel could be built "
                "(no C compiler?); using bitset",
                ENGINE_ENV,
            )
            return ENGINE_BITSET
        if (
            support_cells(as_compiled(network)) >= NATIVE_MIN_SUPPORT_CELLS
            and native_available()
        ):
            return ENGINE_NATIVE
        return ENGINE_BITSET
    if spec == ENGINE_NATIVE and not native_available():
        raise RuntimeError(
            "engine='native' requested but the native kernel is unavailable "
            "(no C compiler on PATH/$CC and no cached build)"
        )
    return spec


def batch_min_conflicts(
    network: ConstraintNetwork | CompiledNetwork,
    seeds: Sequence[int],
    max_steps: int = 10_000,
    max_restarts: int = 10,
    engine: str = ENGINE_AUTO,
    deadline_at: float | None = None,
) -> list[SolverResult]:
    """Run one min-conflicts chain per seed; all chains share one kernel.

    Chain ``k`` is byte-identical -- assignment, RNG stream, effort
    counters -- to ``MinConflictsSolver(seed=seeds[k], max_steps=...,
    max_restarts=...).solve(network)``: a multi-seed restart
    portfolio over one compiled kernel.  Each returned result's
    ``time_seconds`` reports the batch wall clock (per-chain times are
    not separated).

    ``deadline_at`` (absolute ``time.monotonic()``) ends still-running
    chains with no assignment once it passes -- the local search is
    incomplete anyway, so a deadline just shortens the walk.

    Raises:
        ValueError: for an empty seed list or non-positive budgets.
    """
    if not seeds:
        raise ValueError("batch_min_conflicts needs at least one seed")
    if max_steps <= 0 or max_restarts <= 0:
        raise ValueError("max_steps and max_restarts must be positive")
    kernel = as_compiled(network)
    resolved = resolve_engine(engine, kernel)
    start = time.perf_counter()
    if resolved == ENGINE_NATIVE:
        results = _native_chains(
            kernel, seeds, max_steps, max_restarts, deadline_at
        )
    else:
        from repro.csp.minconflicts import MinConflictsSolver

        results = []
        for seed in seeds:
            solver = MinConflictsSolver(
                seed=seed,
                max_steps=max_steps,
                max_restarts=max_restarts,
                engine=ENGINE_BITSET,
            )
            if deadline_at is not None:
                solver.set_deadline(deadline_at - time.monotonic())
            results.append(solver.solve(kernel))
    elapsed = time.perf_counter() - start
    for result in results:
        result.stats.time_seconds = elapsed
    return results


def _native_chains(
    kernel: CompiledNetwork,
    seeds: Sequence[int],
    max_steps: int,
    max_restarts: int,
    deadline_at: float | None,
) -> list[SolverResult]:
    """One whole-walk C loop per seed; the lowering is shared."""
    from repro.csp.native import ops as native_ops

    results = []
    for seed in seeds:
        stats = SolverStats()
        values, nodes, checks, restarts = native_ops.min_conflicts(
            kernel, seed, max_steps, max_restarts, deadline_at
        )
        stats.nodes = nodes
        stats.consistency_checks = checks
        stats.restarts = restarts
        assignment = kernel.to_named(values) if values is not None else None
        results.append(SolverResult(assignment, stats, complete=False))
    return results
