"""Space-splitting parallel search: clone/commit subtree racing.

Every speed tier so far (compiled bitsets, the native kernel, the
resident daemon) parallelizes *across* requests or portfolio schemes;
a single hard network still searches on one core.  This module splits
the search space of one instance:

1. run the forward-checking search to a configurable **branch
   frontier**, snapshotting the open branch points as
   :class:`SearchSpace` values (``clone()`` / ``commit(k)`` over the
   picklable :class:`~repro.csp.compiled.CompiledNetwork` plus the
   domain bitmasks -- the clone/commit/ask computation-space shape);
2. farm the resulting subtrees to a warm ``ProcessPoolExecutor``.
   Only the per-subtree domain deltas and the decision prefix go over
   the wire; the kernel itself ships at most once per worker (workers
   keep a small keyed cache);
3. balance load with a **double-ended work-stealing deque per
   worker**: each lane consumes its own lex-earliest subtree from the
   front, and an idle lane steals the deepest-split (lex-latest)
   subtree from the back of the busiest peer;
4. merge deterministically: the winning solution is the one whose
   decision prefix is **lexicographically smallest** among completed
   subtrees, and a subtree lex-after a known solution is pruned.

Determinism is the load-bearing property.  Forward checking's state at
a node depends only on the decision prefix (domains are the full masks
ANDed with the supports of the assigned values), so a subtree explored
standalone from its snapshot is byte-identical to the serial search's
exploration of that same region.  The serial search visits exactly the
region lex-at-or-before the leftmost solution; therefore the split
run's *accounted* effort -- frontier billing plus subtree billing,
each tagged with its decision prefix and kept only when the prefix is
lex-at-or-before the winner's, plus one backtrack per fully-failed
interior frontier node -- reproduces the serial
:class:`~repro.csp.forward_checking.ForwardCheckingSolver` counters
byte for byte, for SAT and UNSAT alike, regardless of worker count or
steal order.  Work done past the winner is real but nondeterministic,
so it is reported separately (``speculative_*``).

The ``search="serial" | "split" | "auto"`` seam mirrors the engine
seam of :mod:`repro.csp.vectorized`: ``auto`` first spends a bounded
serial effort budget and escalates to the split path only when the
budget is exhausted, so easy instances never pay fork overhead.

:func:`enumerate_solutions_parallel` applies the same split to
:func:`repro.csp.compiled.enumerate_solutions`'s static-order
enumeration and *streams* the solutions in the serial order as
subtrees complete, so ``refine="simulated"`` consumes top-k lazily.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from typing import Iterator

from repro.csp.compiled import CompiledNetwork, as_compiled, iter_bits
from repro.csp.engine import record_solver_effort
from repro.csp.network import ConstraintNetwork
from repro.csp.stats import SolverResult, SolverStats, Stopwatch
from repro.csp.vectorized import ENGINE_AUTO, resolve_engine
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

#: Search-mode tokens accepted wherever a ``search=`` knob exists.
SEARCH_SERIAL = "serial"
SEARCH_SPLIT = "split"
SEARCH_AUTO = "auto"
SEARCHES = (SEARCH_AUTO, SEARCH_SERIAL, SEARCH_SPLIT)

#: Environment override consulted by :func:`resolve_search`; set to
#: ``serial`` or ``split`` to force one search mode process-wide.
SEARCH_ENV = "REPRO_CSP_SEARCH"

#: Environment cap on split workers (CI smoke runs export ``2``).
SPLIT_WORKERS_ENV = "REPRO_SPLIT_WORKERS"

#: ``search="auto"``: nodes the serial attempt may spend before the
#: solver escalates to the split path.
DEFAULT_SERIAL_BUDGET_NODES = 2_048

#: Frontier sizing: open at least this many subtrees per worker, so
#: uneven subtrees leave the stealing deques something to balance.
DEFAULT_SUBTREES_PER_WORKER = 4

#: Frontier expansion stops after this many commits even when the
#: subtree target was not reached (thin trees degenerate to serial).
_FRONTIER_COMMIT_FACTOR = 16

#: Subtree workers poll their deadline once per this many nodes.
_DEADLINE_CHECK_MASK = 255

_SPACE_FAILED = -1
_SPACE_SUCCEEDED = 0


def resolve_search(spec: str) -> str:
    """Resolve a search spec, honouring the :data:`SEARCH_ENV` override.

    Unlike engine resolution, ``auto`` stays ``auto``: it resolves per
    *solve* (a bounded serial attempt decides), not per network.

    Raises:
        ValueError: for an unknown spec.
    """
    if spec not in SEARCHES:
        raise ValueError(f"unknown search {spec!r}; pick one of {SEARCHES}")
    override = os.environ.get(SEARCH_ENV, "").strip().lower()
    if override in (SEARCH_SERIAL, SEARCH_SPLIT):
        return override
    return spec


def default_split_workers() -> int:
    """Worker count used when the caller does not pin one."""
    env = os.environ.get(SPLIT_WORKERS_ENV, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, min(4, os.cpu_count() or 1))


@dataclass
class SplitStats(SolverStats):
    """Solver counters plus the split run's own bookkeeping.

    The inherited counters (nodes, backtracks, consistency checks) are
    the *deterministic accounted effort* -- byte-identical to the
    serial forward-checking run and invariant under worker count and
    steal schedule.  The extras are not part of that guarantee:
    ``steals`` and the ``speculative_*`` counters depend on timing.
    """

    subtrees: int = 0
    steals: int = 0
    pruned_subtrees: int = 0
    workers: int = 0
    search: str = SEARCH_SPLIT
    speculative_nodes: int = 0
    speculative_checks: int = 0

    def as_dict(self) -> dict[str, float]:
        data = super().as_dict()
        data.update(
            {
                "subtrees": self.subtrees,
                "steals": self.steals,
                "pruned_subtrees": self.pruned_subtrees,
                "workers": self.workers,
                "search": self.search,
                "speculative_nodes": self.speculative_nodes,
                "speculative_checks": self.speculative_checks,
            }
        )
        return data


class SearchSpace:
    """One open node of the forward-checking search, as a value.

    The computation-space trio: :meth:`ask` reports whether the space
    failed, succeeded, or offers ``k`` alternatives at its branch
    variable; :meth:`clone` copies the space; :meth:`commit` narrows a
    clone to one alternative (assign + forward-prune).  Effort billing
    matches :class:`~repro.csp.forward_checking.ForwardCheckingSolver`
    exactly: one node per attempted value, one check per assigned
    neighbor, one check per live value of each unassigned neighbor.
    """

    __slots__ = ("kernel", "masks", "values", "assigned", "prefix", "branch")

    def __init__(self, kernel, masks, values, assigned, prefix):
        self.kernel = kernel
        self.masks = masks
        self.values = values
        self.assigned = assigned
        self.prefix = prefix
        self.branch: int | None = None

    @classmethod
    def root(cls, kernel: CompiledNetwork) -> "SearchSpace":
        return cls(
            kernel,
            list(kernel.full_masks),
            [None] * kernel.variable_count,
            0,
            (),
        )

    def ask(self) -> int:
        """-1 failed, 0 succeeded, else the branch variable's live count."""
        kernel = self.kernel
        if self.assigned == kernel.variable_count:
            return _SPACE_SUCCEEDED
        values, masks = self.values, self.masks
        neighbors, rank = kernel.neighbors, kernel.name_rank
        self.branch = min(
            (i for i in range(kernel.variable_count) if values[i] is None),
            key=lambda i: (masks[i].bit_count(), -len(neighbors[i]), rank[i]),
        )
        live = masks[self.branch].bit_count()
        return live if live else _SPACE_FAILED

    def branch_values(self) -> list[int]:
        """The branch variable's live values, ascending (serial order)."""
        return list(iter_bits(self.masks[self.branch]))

    def clone(self) -> "SearchSpace":
        clone = SearchSpace(
            self.kernel,
            list(self.masks),
            list(self.values),
            self.assigned,
            self.prefix,
        )
        clone.branch = self.branch
        return clone

    def commit(self, value: int, bucket: list[int]) -> bool:
        """Assign ``branch = value`` in place; False on a wipe-out.

        ``bucket`` is a ``[nodes, backtracks, checks]`` effort cell
        the caller keyed by this commit's decision prefix.
        """
        kernel = self.kernel
        variable = self.branch
        self.prefix = self.prefix + (value,)
        bucket[0] += 1
        masks, values, supports = self.masks, self.values, kernel.supports
        for neighbor in kernel.neighbors[variable]:
            support = supports[(variable, neighbor)][value]
            neighbor_value = values[neighbor]
            if neighbor_value is not None:
                bucket[2] += 1
                if not (support >> neighbor_value) & 1:
                    return False
                continue
            before = masks[neighbor]
            bucket[2] += before.bit_count()
            after = before & support
            if after != before:
                masks[neighbor] = after
                if not after:
                    return False
        values[variable] = value
        self.assigned += 1
        self.branch = None
        return True


@dataclass(frozen=True)
class _Subtree:
    """One open frontier leaf, ready to ship to a worker."""

    prefix: tuple[int, ...]
    values: tuple
    deltas: tuple[tuple[int, int], ...]


def _space_deltas(space: SearchSpace) -> tuple[tuple[int, int], ...]:
    """Domain masks that differ from the full masks (unassigned only)."""
    kernel = space.kernel
    return tuple(
        (i, space.masks[i])
        for i in range(kernel.variable_count)
        if space.values[i] is None and space.masks[i] != kernel.full_masks[i]
    )


# -- worker side ----------------------------------------------------------

#: Collision-free kernel-key suffixes (object ids can be reused).
_KEY_COUNTER = itertools.count(1)

#: Worker-resident kernels, keyed by the parent's opaque kernel key.
_WORKER_KERNELS: "OrderedDict[str, CompiledNetwork]" = OrderedDict()
_WORKER_KERNEL_CAP = 8

#: Set in the parent just before the pool forks, so the first
#: generation of workers inherits the current kernel for free.
_FORK_KERNEL_SEED: tuple[str, CompiledNetwork] | None = None


def _install_worker_kernel(key: str, kernel: CompiledNetwork) -> None:
    _WORKER_KERNELS[key] = kernel
    _WORKER_KERNELS.move_to_end(key)
    while len(_WORKER_KERNELS) > _WORKER_KERNEL_CAP:
        _WORKER_KERNELS.popitem(last=False)


def _worker_kernel(task: dict) -> CompiledNetwork | None:
    """Resolve the task's kernel: cache, fork seed, or shipped copy."""
    key = task["kernel_key"]
    kernel = _WORKER_KERNELS.get(key)
    if kernel is not None:
        _WORKER_KERNELS.move_to_end(key)
        return kernel
    if _FORK_KERNEL_SEED is not None and _FORK_KERNEL_SEED[0] == key:
        kernel = _FORK_KERNEL_SEED[1]
    else:
        kernel = task.get("kernel")
    if kernel is None:
        return None
    _install_worker_kernel(key, kernel)
    return kernel


def _restore_state(kernel: CompiledNetwork, task: dict):
    """Rebuild (values, masks, assigned) from the wire deltas."""
    values = list(task["values"])
    masks = list(kernel.full_masks)
    for i, mask in task["deltas"]:
        masks[i] = mask
    assigned = sum(1 for v in values if v is not None)
    return values, masks, assigned


def _subtree_worker(task: dict) -> dict:
    """Pool entry point: run one subtree (or enumeration slice)."""
    kernel = _worker_kernel(task)
    if kernel is None:
        return {"status": "need-kernel", "prefix": task["prefix"]}
    start = time.perf_counter()
    cpu_start = time.process_time()
    if task["mode"] == "enum":
        payload = _run_enum_subtree(kernel, task)
    else:
        payload = _run_search_subtree(kernel, task)
    payload["prefix"] = task["prefix"]
    payload["pid"] = os.getpid()
    payload["seconds"] = time.perf_counter() - start
    # CPU time is immune to time-sharing: on an oversubscribed host
    # the wall clocks of concurrent subtrees overlap and double-count,
    # but the CPU seconds still sum to the real work done (the split
    # bench builds its critical-path model from these).
    payload["cpu_seconds"] = time.process_time() - cpu_start
    return payload


def _run_search_subtree(kernel: CompiledNetwork, task: dict) -> dict:
    from repro.csp.forward_checking import ForwardCheckingSolver

    values, masks, assigned = _restore_state(kernel, task)
    solver = ForwardCheckingSolver(
        engine=task.get("engine", ENGINE_AUTO),
        max_nodes=task.get("max_nodes"),
    )
    result = solver.solve_from(
        kernel, values, masks, assigned, deadline_at=task.get("deadline_at")
    )
    stats = result.stats.as_dict()
    stats.pop("time_seconds", None)
    return {
        "status": "done",
        "assignment": dict(result.assignment) if result.assignment else None,
        "complete": result.complete,
        "stats": stats,
    }


def _run_enum_subtree(kernel: CompiledNetwork, task: dict) -> dict:
    values, masks, _ = _restore_state(kernel, task)
    solutions = _enum_search(
        kernel,
        task["order"],
        task["position"],
        values,
        masks,
        task["depth"],
        task["limit"],
        task.get("max_nodes"),
    )
    return {"status": "done", "solutions": solutions, "complete": True}


def _enum_search(kernel, order, position, values, masks, depth, limit, max_nodes):
    """Continuation of ``enumerate_solutions``'s static-order DFS.

    Same variable order, same ascending value order, same
    prune-later-positions-only forward checking -- so the lex-ordered
    concatenation of subtree outputs reproduces the serial sequence.
    """
    count = kernel.variable_count
    solutions: list[dict] = []
    nodes = 0

    def search(level: int) -> bool:
        nonlocal nodes
        if level == count:
            solutions.append(kernel.to_named(values))
            return len(solutions) >= limit
        variable = order[level]
        mask = masks[variable]
        while mask:
            if max_nodes is not None and nodes >= max_nodes:
                return True
            nodes += 1
            low = mask & -mask
            mask ^= low
            value = low.bit_length() - 1
            values[variable] = value
            saved: list[tuple[int, int]] = []
            dead = False
            for neighbor in kernel.neighbors[variable]:
                if position[neighbor] <= level:
                    continue
                pruned = masks[neighbor] & kernel.support_mask(
                    variable, value, neighbor
                )
                saved.append((neighbor, masks[neighbor]))
                masks[neighbor] = pruned
                if not pruned:
                    dead = True
                    break
            if not dead and search(level + 1):
                return True
            for neighbor, previous in saved:
                masks[neighbor] = previous
            values[variable] = None
        return False

    search(depth)
    return solutions


# -- runners --------------------------------------------------------------


class _InlineRunner:
    """In-process execution with an injectable completion schedule.

    The default schedule is FIFO (oldest submission completes first).
    A ``schedule_rng`` completes a random non-empty subset per
    ``wait_any`` call instead, which -- combined with a ``steal_rng``
    on the solver -- lets property tests drive arbitrary completion
    orders and steal schedules without processes.
    """

    uses_processes = False

    def __init__(self, kernel: CompiledNetwork, schedule_rng=None):
        self._kernel = kernel
        self._rng = schedule_rng
        self._order: list["_InlineFuture"] = []

    def submit(self, task: dict) -> "_InlineFuture":
        future = _InlineFuture(task)
        self._order.append(future)
        return future

    def wait_any(self, pending: set) -> set:
        waiting = [f for f in self._order if f in pending]
        if not waiting:
            return set()
        if self._rng is not None:
            take = self._rng.randint(1, len(waiting))
            chosen = self._rng.sample(waiting, take)
        else:
            chosen = waiting[:1]
        done = set()
        for future in chosen:
            future.run(self._kernel)
            self._order.remove(future)
            done.add(future)
        return done

    def close(self) -> None:
        self._order.clear()


class _InlineFuture:
    __slots__ = ("task", "_payload")

    def __init__(self, task: dict):
        self.task = task
        self._payload = None

    def run(self, kernel: CompiledNetwork) -> None:
        task = dict(self.task)
        task["kernel"] = kernel
        _WORKER_KERNELS.pop(task["kernel_key"], None)
        self._payload = _subtree_worker(task)

    def result(self) -> dict:
        return self._payload


def fork_context():
    """The ``fork`` multiprocessing context when the platform has it.

    Forked workers start cheaply and inherit the parent's in-process
    state: warm caches (a compiled kernel, the loaded native library)
    and scheme registrations such as the portfolio's
    ``EXTRA_SCHEMES``.  Platforms without ``fork`` get the default
    context.  The split-search pool, the portfolio race and the daemon
    pool all start from here.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class _PoolRunner:
    """Warm ``ProcessPoolExecutor`` wrapper (fork context when available)."""

    uses_processes = True

    def __init__(self, workers: int):
        self.workers = workers
        self._pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=fork_context()
        )

    def submit(self, task: dict):
        return self._pool.submit(_subtree_worker, task)

    def wait_any(self, pending: set) -> set:
        done, _ = futures_wait(pending, timeout=0.1, return_when=FIRST_COMPLETED)
        return done

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


# -- the solver -----------------------------------------------------------


class SplitSearchSolver:
    """Forward-checking search split across a warm worker pool.

    Deterministic: the returned assignment and the accounted effort
    counters are byte-identical to the serial
    :class:`~repro.csp.forward_checking.ForwardCheckingSolver` run,
    for any worker count and any steal schedule (see the module
    docstring for why).  Complete: a ``None`` assignment with
    ``complete=True`` proves unsatisfiability.

    Args:
        seed: accepted for scheme-registry symmetry (the search is
            fully deterministic).
        engine: propagation engine for the subtree searches.
        search: ``"serial"`` (plain forward checking), ``"split"``
            (always split), or ``"auto"`` (serial until
            ``serial_budget`` nodes, then split).
        workers: subtree worker processes (default:
            ``REPRO_SPLIT_WORKERS`` or ``min(4, cpu_count)``).
            ``workers=1`` runs the split machinery inline -- same
            frontier, same merge, no processes -- which is also the
            automatic fallback inside daemonic processes (a portfolio
            race child cannot spawn grandchildren).
        subtrees_per_worker: frontier sizing target.
        serial_budget: node budget of the ``auto`` serial attempt.
        steal_rng: optional ``random.Random``; when given, an idle
            lane steals from a *random* non-empty peer instead of the
            busiest one (property tests randomize schedules with it).
        runner_factory: test seam -- ``(kernel, workers) -> runner``.
    """

    name = "split"

    def __init__(
        self,
        seed: int = 0,
        engine: str = ENGINE_AUTO,
        search: str = SEARCH_AUTO,
        workers: int | None = None,
        subtrees_per_worker: int = DEFAULT_SUBTREES_PER_WORKER,
        serial_budget: int = DEFAULT_SERIAL_BUDGET_NODES,
        steal_rng=None,
        runner_factory=None,
    ):
        if search not in SEARCHES:
            raise ValueError(f"unknown search {search!r}; pick one of {SEARCHES}")
        if subtrees_per_worker <= 0 or serial_budget <= 0:
            raise ValueError("subtrees_per_worker and serial_budget must be positive")
        self._seed = seed
        self._engine = engine
        self._search = search
        self._workers = workers
        self._subtrees_per_worker = subtrees_per_worker
        self._serial_budget = serial_budget
        self._steal_rng = steal_rng
        self._runner_factory = runner_factory
        self._deadline_seconds: float | None = None
        self._pool: _PoolRunner | None = None
        self._kernel_ref: CompiledNetwork | None = None
        self._kernel_key: str | None = None
        self._acked_pids: set[int] = set()

    # -- lifecycle ------------------------------------------------------

    def set_deadline(self, seconds: float) -> None:
        """Bound the next solve's wall clock (propagated per subtree)."""
        self._deadline_seconds = max(0.0, seconds)

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __del__(self):  # pragma: no cover - interpreter-shutdown path
        try:
            self.close()
        except Exception:
            pass

    # -- solving --------------------------------------------------------

    def solve(self, network: ConstraintNetwork | CompiledNetwork) -> SolverResult:
        """Find one solution (or prove there is none)."""
        kernel = as_compiled(network)
        engine = resolve_engine(self._engine, kernel)
        deadline_at = (
            time.monotonic() + self._deadline_seconds
            if self._deadline_seconds is not None
            else None
        )
        search = resolve_search(self._search)
        stats = SplitStats(workers=self._resolve_workers())
        with obs_trace.span("split_search", search=search) as span:
            with Stopwatch(stats):
                result = self._solve_modes(
                    kernel, engine, search, stats, deadline_at, span
                )
            span.set_attribute("resolved", stats.search)
            span.set_attribute("subtrees", stats.subtrees)
            span.set_attribute("steals", stats.steals)
        if obs_metrics.enabled():
            record_solver_effort(engine, "split", stats)
        return result

    def _solve_modes(self, kernel, engine, search, stats, deadline_at, span):
        from repro.csp.forward_checking import ForwardCheckingSolver

        if search in (SEARCH_SERIAL, SEARCH_AUTO):
            budget = None if search == SEARCH_SERIAL else self._serial_budget
            solver = ForwardCheckingSolver(engine=engine, max_nodes=budget)
            attempt = solver.solve_from(
                kernel,
                [None] * kernel.variable_count,
                list(kernel.full_masks),
                0,
                deadline_at=deadline_at,
            )
            if search == SEARCH_SERIAL or attempt.complete:
                self._adopt_counters(stats, attempt.stats.as_dict())
                stats.search = SEARCH_SERIAL
                return SolverResult(attempt.assignment, stats, attempt.complete)
            # Budget exhausted: the instance earned the split path.  The
            # attempt's effort was really spent (and is deterministic),
            # but it is not part of the split accounting identity, so
            # it rides in the speculative tally.
            stats.speculative_nodes += attempt.stats.nodes
            stats.speculative_checks += attempt.stats.consistency_checks
        stats.search = SEARCH_SPLIT
        return self._solve_split(kernel, engine, stats, deadline_at, span)

    @staticmethod
    def _adopt_counters(stats: SplitStats, counters: dict) -> None:
        stats.nodes += int(counters.get("nodes", 0))
        stats.backtracks += int(counters.get("backtracks", 0))
        stats.backjumps += int(counters.get("backjumps", 0))
        stats.consistency_checks += int(counters.get("consistency_checks", 0))
        stats.restarts += int(counters.get("restarts", 0))

    def _resolve_workers(self) -> int:
        workers = self._workers if self._workers else default_split_workers()
        return max(1, workers)

    # -- frontier expansion ---------------------------------------------

    def _expand_frontier(self, kernel, target, buckets, interior):
        """Breadth-first split to ``target`` open spaces.

        Returns ``(subtrees, solutions)``: the open leaves (lex order)
        and any solutions hit during expansion, as ``(prefix, named)``
        pairs.  Every commit bills into ``buckets[child_prefix]``;
        ``interior[prefix]`` records each expanded node's surviving
        child prefixes (the merge's bonus-backtrack walk needs them).
        """
        commit_budget = max(64, target * _FRONTIER_COMMIT_FACTOR)
        commits = 0
        solutions: list[tuple[tuple[int, ...], dict]] = []
        queue: deque[SearchSpace] = deque([SearchSpace.root(kernel)])
        while queue and len(queue) < target and commits < commit_budget:
            space = queue.popleft()
            status = space.ask()
            if status == _SPACE_SUCCEEDED:
                solutions.append((space.prefix, kernel.to_named(space.values)))
                continue
            children: list[tuple[int, ...]] = []
            for value in space.branch_values():
                child = space.clone()
                prefix = space.prefix + (value,)
                bucket = buckets.setdefault(prefix, [0, 0, 0])
                commits += 1
                if child.commit(value, bucket):
                    children.append(prefix)
                    queue.append(child)
            interior[space.prefix] = children
        subtrees = []
        for space in queue:
            if space.assigned == kernel.variable_count:
                solutions.append((space.prefix, kernel.to_named(space.values)))
            else:
                subtrees.append(
                    _Subtree(
                        prefix=space.prefix,
                        values=tuple(space.values),
                        deltas=_space_deltas(space),
                    )
                )
        subtrees.sort(key=lambda s: s.prefix)
        solutions.sort(key=lambda s: s[0])
        return subtrees, solutions

    # -- the split run --------------------------------------------------

    def _solve_split(self, kernel, engine, stats, deadline_at, span):
        buckets: dict[tuple[int, ...], list[int]] = {}
        interior: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        workers = stats.workers
        target = max(workers * self._subtrees_per_worker, workers)
        subtrees, frontier_solutions = self._expand_frontier(
            kernel, target, buckets, interior
        )
        stats.subtrees = len(subtrees)
        results: dict[tuple[int, ...], dict] = {
            prefix: {
                "status": "done",
                "assignment": named,
                "complete": True,
                "stats": {},
                "seconds": 0.0,
            }
            for prefix, named in frontier_solutions
        }
        complete = True
        if subtrees:
            runner = self._runner_for(kernel, workers)
            try:
                complete = self._run_subtrees(
                    kernel, engine, subtrees, runner, workers, deadline_at,
                    results, stats, span,
                )
            finally:
                if runner is not self._pool:
                    runner.close()
        obs_metrics.counter(
            "repro_split_subtrees_total",
            float(stats.subtrees),
            help="Subtrees farmed out by the split-search solver.",
        )
        obs_metrics.counter(
            "repro_split_steals_total",
            float(stats.steals),
            help="Work-stealing deque steals during split searches.",
        )
        return self._merge(kernel, buckets, interior, results, stats, complete)

    def _runner_for(self, kernel, workers):
        if self._runner_factory is not None:
            return self._runner_factory(kernel, workers)
        if workers <= 1 or multiprocessing.current_process().daemon:
            # Daemonic processes (portfolio race children) may not
            # spawn grandchildren; the inline runner walks the same
            # frontier/merge path, so the result is identical.
            return _InlineRunner(kernel, schedule_rng=None)
        if self._pool is not None and self._pool.workers != workers:
            self.close()
        if self._pool is None:
            global _FORK_KERNEL_SEED
            _FORK_KERNEL_SEED = (self._kernel_key_for(kernel), kernel)
            try:
                self._pool = _PoolRunner(workers)
            finally:
                _FORK_KERNEL_SEED = None
            self._acked_pids = set()
        return self._pool

    def _kernel_key_for(self, kernel) -> str:
        if kernel is not self._kernel_ref:
            self._kernel_ref = kernel
            self._kernel_key = f"split-{os.getpid()}-{next(_KEY_COUNTER)}"
            self._acked_pids = set()
        return self._kernel_key

    def _task_for(self, kernel, engine, subtree, deadline_at, fat):
        task = {
            "mode": "search",
            "kernel_key": self._kernel_key_for(kernel),
            "engine": engine,
            "prefix": subtree.prefix,
            "values": subtree.values,
            "deltas": subtree.deltas,
            "deadline_at": deadline_at,
            "max_nodes": None,
        }
        if fat:
            task["kernel"] = kernel
        return task

    def _run_subtrees(
        self, kernel, engine, subtrees, runner, workers, deadline_at,
        results, stats, span,
    ) -> bool:
        """Lane scheduler: own-front consumption, back-of-busiest steals.

        Returns False when the deadline cut the run short (some
        subtrees never ran or came back incomplete).
        """
        lanes: list[deque[_Subtree]] = [deque() for _ in range(workers)]
        count = len(subtrees)
        for index, subtree in enumerate(subtrees):
            lanes[index * workers // count].append(subtree)
        inflight: dict[object, tuple[int, _Subtree]] = {}
        best_solution: tuple[int, ...] | None = None
        timed_out = False

        def prune_lanes() -> None:
            if best_solution is None:
                return
            for lane in lanes:
                while lane and lane[-1].prefix > best_solution:
                    lane.pop()
                    stats.pruned_subtrees += 1

        def take(lane_index: int):
            if lanes[lane_index]:
                return lanes[lane_index].popleft(), False
            victims = [i for i in range(workers) if lanes[i]]
            if not victims:
                return None, False
            if self._steal_rng is not None:
                victim = self._steal_rng.choice(victims)
            else:
                victim = max(victims, key=lambda i: (len(lanes[i]), -i))
            return lanes[victim].pop(), True

        while inflight or any(lanes):
            if deadline_at is not None and time.monotonic() >= deadline_at:
                timed_out = True
                break
            busy = {lane for lane, _ in inflight.values()}
            fat = runner.uses_processes and len(self._acked_pids) < workers
            for lane_index in range(workers):
                if lane_index in busy:
                    continue
                subtree, stolen = take(lane_index)
                if subtree is None:
                    break
                stats.steals += int(stolen)
                future = runner.submit(
                    self._task_for(kernel, engine, subtree, deadline_at, fat)
                )
                inflight[future] = (lane_index, subtree)
            if not inflight:
                break
            for future in runner.wait_any(set(inflight)):
                lane_index, subtree = inflight.pop(future)
                payload = future.result()
                if payload["status"] == "need-kernel":
                    retry = runner.submit(
                        self._task_for(kernel, engine, subtree, deadline_at, True)
                    )
                    inflight[retry] = (lane_index, subtree)
                    continue
                if runner.uses_processes:
                    self._acked_pids.add(payload["pid"])
                results[subtree.prefix] = payload
                self._subtree_span(span, subtree, payload)
                if payload["assignment"] is not None:
                    if best_solution is None or subtree.prefix < best_solution:
                        best_solution = subtree.prefix
                    prune_lanes()
        if timed_out:
            # Drain what is already running; everything queued stays unrun.
            while inflight:
                for future in runner.wait_any(set(inflight)):
                    lane_index, subtree = inflight.pop(future)
                    payload = future.result()
                    if payload["status"] == "need-kernel":
                        continue
                    results[subtree.prefix] = payload
        # Pruned subtrees (lex-after a known solution) are fine to skip:
        # the serial search never visits them either.  Anything else
        # left unrun means the deadline cut the run short.
        ran_all = all(
            subtree.prefix in results
            for subtree in subtrees
            if best_solution is None or subtree.prefix <= best_solution
        )
        return not timed_out and ran_all

    @staticmethod
    def _subtree_span(span, subtree, payload) -> None:
        """Synthesize a child span per completed subtree.

        Mirrors the portfolio's per-scheme span synthesis: subtree
        work happens in other processes, so the parent reconstructs a
        span from the reported wall clock.  Inside a daemon worker the
        whole tree ships home via ``capture`` and is re-parented under
        the request's dispatch span.
        """
        if not span or not payload.get("seconds"):
            return
        child = span.child(
            f"subtree:{'.'.join(map(str, subtree.prefix))}",
            solved=payload["assignment"] is not None,
            cpu_seconds=payload.get("cpu_seconds", 0.0),
        )
        child.end_ns = child.start_ns + int(payload["seconds"] * 1e9)

    # -- deterministic merge --------------------------------------------

    def _merge(self, kernel, buckets, interior, results, stats, complete):
        """Fold frontier billing and subtree results into one verdict.

        Winner = lexicographically smallest decision prefix with a
        solution.  Accounted effort = every effort event whose prefix
        is lex-at-or-before the winner's (all of them for UNSAT), plus
        one backtrack per fully-failed interior node in that region --
        exactly the serial forward-checking totals.
        """
        winner: tuple[int, ...] | None = None
        for prefix in sorted(results):
            if results[prefix]["assignment"] is not None:
                winner = prefix
                break

        def counted(prefix: tuple[int, ...]) -> bool:
            return winner is None or prefix <= winner

        # Region failure, leaves up (interior iterated deepest-first).
        failed: dict[tuple[int, ...], bool] = {}
        for prefix, payload in results.items():
            failed[prefix] = payload["assignment"] is None and payload["complete"]
        for prefix in sorted(interior, key=len, reverse=True):
            failed[prefix] = all(
                failed.get(child, False) for child in interior[prefix]
            )

        for prefix, bucket in buckets.items():
            if counted(prefix):
                stats.nodes += bucket[0]
                stats.backtracks += bucket[1]
                stats.consistency_checks += bucket[2]
            else:
                stats.speculative_nodes += bucket[0]
                stats.speculative_checks += bucket[2]
        for prefix in interior:
            if failed[prefix] and counted(prefix):
                stats.backtracks += 1
        incomplete_in_region = False
        for prefix, payload in results.items():
            counters = payload.get("stats") or {}
            if counted(prefix):
                self._adopt_counters(stats, counters)
                if not payload["complete"]:
                    incomplete_in_region = True
            else:
                stats.speculative_nodes += int(counters.get("nodes", 0))
                stats.speculative_checks += int(
                    counters.get("consistency_checks", 0)
                )

        if winner is not None:
            assignment = results[winner]["assignment"]
            return SolverResult(
                assignment, stats, complete=complete and not incomplete_in_region
            )
        return SolverResult(
            None, stats, complete=complete and not incomplete_in_region
        )


# -- streaming parallel enumeration ---------------------------------------


def enumerate_solutions_parallel(
    network: ConstraintNetwork | CompiledNetwork,
    limit: int,
    max_nodes: int = 200_000,
    workers: int | None = None,
    subtrees_per_worker: int = DEFAULT_SUBTREES_PER_WORKER,
) -> Iterator[dict]:
    """Stream up to ``limit`` solutions in the deterministic order.

    The split form of :func:`repro.csp.compiled.enumerate_solutions`:
    the same static max-degree variable order and ascending value
    order, but the space is split at a branch frontier and the
    subtrees enumerate concurrently.  Solutions are yielded in the
    *serial* order -- subtree outputs are consumed lex-earliest first
    -- so ``refine="simulated"`` can take the top-k lazily and stop
    the pool early instead of materializing everything up front.

    ``max_nodes`` bounds each subtree's effort (the serial function
    bounds the whole walk, so truncated enumerations may differ; give
    both a generous budget when comparing).

    Raises:
        ValueError: for a non-positive limit.
    """
    if limit <= 0:
        raise ValueError("limit must be positive")
    kernel = as_compiled(network)
    count = kernel.variable_count
    if count == 0:
        return
    order = sorted(
        range(count),
        key=lambda v: (-len(kernel.neighbors[v]), kernel.name_rank[v]),
    )
    position = {variable: depth for depth, variable in enumerate(order)}
    workers = workers if workers else default_split_workers()
    target = max(workers * subtrees_per_worker, workers)

    # Frontier expansion in the static order (no effort accounting:
    # enumeration bills nothing).
    entries = _expand_enum_frontier(kernel, order, position, target)

    inline = (
        workers <= 1
        or len([e for e in entries if e[0] == "subtree"]) <= 1
        or multiprocessing.current_process().daemon
    )
    if inline:
        yielded = 0
        for kind, prefix, state in entries:
            if kind == "solution":
                yield state
                yielded += 1
            else:
                values, masks, depth = state
                for named in _enum_search(
                    kernel, order, position, list(values), list(masks),
                    depth, limit - yielded, max_nodes,
                ):
                    yield named
                    yielded += 1
                    if yielded >= limit:
                        return
            if yielded >= limit:
                return
        return

    runner = _PoolRunner(workers)
    key = f"enum-{os.getpid()}-{id(kernel)}"
    try:
        futures = []
        first_subtree = True
        for kind, prefix, state in entries:
            if kind == "solution":
                futures.append(("solution", state))
                continue
            values, masks, depth = state
            task = {
                "mode": "enum",
                "kernel_key": key,
                "kernel": kernel if first_subtree else None,
                "prefix": prefix,
                "values": tuple(values),
                "deltas": tuple(
                    (i, masks[i])
                    for i in range(count)
                    if masks[i] != kernel.full_masks[i]
                ),
                "order": order,
                "position": position,
                "depth": depth,
                "limit": limit,
                "max_nodes": max_nodes,
            }
            first_subtree = False
            futures.append(("future", (runner.submit(task), task)))
        yielded = 0
        for kind, entry in futures:
            if kind == "solution":
                yield entry
                yielded += 1
            else:
                future, task = entry
                payload = future.result()
                if payload["status"] == "need-kernel":
                    retry = dict(task)
                    retry["kernel"] = kernel
                    payload = runner.submit(retry).result()
                for named in payload["solutions"]:
                    yield named
                    yielded += 1
                    if yielded >= limit:
                        return
            if yielded >= limit:
                return
    finally:
        runner.close()


def _expand_enum_frontier(kernel, order, position, target):
    """BFS split of the static-order enumeration space.

    Returns lex-ordered entries: ``("solution", prefix, named)`` for
    full assignments hit during expansion, ``("subtree", prefix,
    (values, masks, depth))`` for open leaves.
    """
    count = kernel.variable_count
    root = ((), [None] * count, list(kernel.full_masks), 0)
    queue = deque([root])
    solutions = []
    commit_budget = max(64, target * _FRONTIER_COMMIT_FACTOR)
    commits = 0
    while queue and len(queue) < target and commits < commit_budget:
        prefix, values, masks, depth = queue.popleft()
        if depth == count:
            solutions.append(("solution", prefix, kernel.to_named(values)))
            continue
        variable = order[depth]
        for value in iter_bits(masks[variable]):
            commits += 1
            child_values = list(values)
            child_masks = list(masks)
            child_values[variable] = value
            dead = False
            for neighbor in kernel.neighbors[variable]:
                if position[neighbor] <= depth:
                    continue
                pruned = child_masks[neighbor] & kernel.support_mask(
                    variable, value, neighbor
                )
                child_masks[neighbor] = pruned
                if not pruned:
                    dead = True
                    break
            if not dead:
                queue.append(
                    (prefix + (value,), child_values, child_masks, depth + 1)
                )
    entries = []
    for prefix, values, masks, depth in queue:
        if depth == count:
            entries.append(("solution", prefix, kernel.to_named(values)))
        else:
            entries.append(("subtree", prefix, (values, masks, depth)))
    entries.extend(solutions)
    entries.sort(key=lambda e: e[1])
    return entries
