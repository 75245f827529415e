"""Racing solver portfolio over one constraint network.

No single search scheme dominates: the paper's base scheme is hopeless
on hard networks where the enhanced scheme is instant, min-conflicts is
unbeatable on loose under-constrained networks, and the weighted branch
& bound is the only scheme that returns anything useful on UNSAT
networks.  A *portfolio* runs several schemes on the same network
concurrently (one ``multiprocessing`` process each), takes the first
exact solution, cancels the stragglers, and records a per-scheme
outcome table.  A per-race deadline bounds worst-case latency: when it
expires every straggler is terminated and the best result seen so far
(or the weighted fallback) is returned.

The portfolio composes with :mod:`repro.service.cache`: results are
keyed by the request fingerprint and the portfolio's canonical token,
so repeat programs are served without spawning a single process.

A race compiles the network exactly once (the builder already did, in
fact -- see :meth:`repro.opt.network_builder.LayoutNetwork.kernel`) and
ships the *compiled* form (:class:`repro.csp.compiled.CompiledNetwork`)
to every worker process, so no scheme re-interns values or rebuilds
support structures.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Hashable, Mapping

from repro.csp.compiled import CompiledNetwork
from repro.csp.splitsearch import fork_context
from repro.csp.stats import SolverStats
from repro.csp.vectorized import ENGINE_AUTO, resolve_engine
from repro.csp.weighted import BranchAndBoundSolver
from repro.ir.program import Program
from repro.layout.layout import Layout, row_major
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import EFFORT_BUCKETS
from repro.opt.network_builder import BuildOptions, LayoutNetwork, build_layout_network
from repro.opt.optimizer import repair_inflation
from repro.opt.passes.base import record_pass_seconds
from repro.service.cache import ResultCache
from repro.service.fingerprint import request_fingerprint

#: Extension point: extra scheme name -> (seed -> solver) factories.
#: Entries registered here (e.g. by tests or experiments) are raced
#: exactly like the built-in schemes.  With the default ``fork`` start
#: method, registrations made before the race are visible to workers.
EXTRA_SCHEMES: dict[str, Callable[[int], object]] = {}

#: Default racing line-up: complementary strengths, no duplicates.
DEFAULT_SCHEMES: tuple[str, ...] = ("enhanced", "cbj", "forward-checking")

#: How long an exited worker's unreported result may stay in flight
#: before the race declares the worker dead (Queue.empty() can be
#: transiently True while the feeder thread is still flushing).
_DEAD_WORKER_GRACE_SECONDS = 0.5


def known_schemes() -> tuple[str, ...]:
    """Every scheme name a portfolio may reference, sorted.

    The ``split:<workers>`` family is open-ended and therefore not
    enumerated here; :func:`split_workers` recognizes its members.
    """
    from repro.opt.optimizer import _SCHEMES

    return tuple(sorted(set(_SCHEMES) | set(EXTRA_SCHEMES)))


def split_workers(scheme: str) -> int | None:
    """Worker count of a ``split:<workers>`` family token (else None).

    Raises:
        ValueError: for a malformed count (``split:`` is the family
            prefix, so a bad suffix is a config error, not an unknown
            scheme).
    """
    if not scheme.startswith("split:"):
        return None
    suffix = scheme.split(":", 1)[1]
    try:
        workers = int(suffix)
    except ValueError:
        raise ValueError(
            f"bad split scheme {scheme!r}: worker count must be an integer"
        ) from None
    if workers <= 0:
        raise ValueError(
            f"bad split scheme {scheme!r}: worker count must be positive"
        )
    return workers


@dataclass(frozen=True)
class PortfolioConfig:
    """What to race and for how long.

    Attributes:
        schemes: scheme names, in priority order (ties in the race are
            broken toward the earlier scheme; sequential mode runs them
            in this order).  Besides the registry names this accepts
            the ``split:<workers>`` family (e.g. ``split:4``): a
            space-splitting parallel search racer
            (:class:`repro.csp.splitsearch.SplitSearchSolver`) with
            that worker count.
        seed: RNG seed handed to every randomized scheme.
        deadline_seconds: per-race wall-clock budget.  The remaining
            budget is also *propagated into* every scheme via its
            cooperative ``set_deadline`` hook (and from there into
            each split subtree), so schemes stop themselves mid-search
            instead of burning the full budget; stragglers that ignore
            the hook are terminated when the deadline expires.
        parallel: race with one process per scheme (True) or run the
            schemes one after another in-process (False; deterministic,
            used by tests and tiny workloads -- between schemes the
            deadline gates whether the next one starts at all).
    """

    schemes: tuple[str, ...] = DEFAULT_SCHEMES
    seed: int = 0
    deadline_seconds: float = 60.0
    parallel: bool = True

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ValueError("portfolio needs at least one scheme")
        if len(set(self.schemes)) != len(self.schemes):
            raise ValueError(f"duplicate schemes in portfolio: {self.schemes}")
        known = known_schemes()
        unknown = [
            name
            for name in self.schemes
            if name not in set(known) and split_workers(name) is None
        ]
        if unknown:
            raise ValueError(
                f"unknown portfolio schemes {unknown}; know {known}"
            )
        if self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")

    @staticmethod
    def parse(spec: str, **overrides) -> "PortfolioConfig":
        """Build from a comma-separated scheme list (CLI syntax).

        Raises:
            ValueError: for duplicate scheme tokens (racing two copies
                of one scheme would burn a process on an identical
                search) and everything the constructor rejects.
        """
        names = tuple(name.strip() for name in spec.split(",") if name.strip())
        seen: set[str] = set()
        duplicates = [name for name in names if name in seen or seen.add(name)]
        if duplicates:
            raise ValueError(
                f"duplicate scheme tokens in {spec!r}: {sorted(set(duplicates))}"
            )
        return PortfolioConfig(schemes=names, **overrides)

    def scheme_seed(self, index: int) -> int:
        """Distinct deterministic RNG seed for the scheme at ``index``.

        Every racer gets its own stream: two randomized schemes racing
        from one seed would take identical tie-breaking decisions (and
        two copies of the *same* randomized scheme would walk in
        lockstep, paying a process for zero diversity).  Index 0 keeps
        the portfolio's base seed, so a single-scheme portfolio is
        bit-compatible with running that scheme directly.
        """
        return self.seed + index

    def token(self) -> str:
        """Canonical cache token (racing nondeterminism excluded).

        Deliberately *excludes* ``parallel`` and the deadline: they
        change how fast an answer arrives, not which answers are
        acceptable, so cached results remain valid across them.  This
        is sound because only *exact* results are ever cached --
        deadline-shaped best-effort results are recomputed.
        """
        return f"portfolio[{','.join(self.schemes)}]seed={self.seed}"


@dataclass(frozen=True)
class SchemeOutcome:
    """One row of the per-scheme outcome table.

    Attributes:
        scheme: scheme name.
        status: "won" (supplied the returned assignment), "solved"
            (found a solution but lost the race), "partial" (weighted
            best-effort, not exact), "unsat" (proved unsatisfiable),
            "gave-up" (incomplete scheme exhausted its budget),
            "cancelled" (terminated because another scheme won),
            "timeout" (terminated by the deadline), "skipped"
            (sequential mode stopped before this scheme), or "error".
        seconds: scheme wall-clock time (0.0 when never started).
        stats: solver effort counters (empty when unavailable).
        detail: human-readable annotation (e.g. the error message).
    """

    scheme: str
    status: str
    seconds: float = 0.0
    stats: dict = field(default_factory=dict)
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "status": self.status,
            "seconds": self.seconds,
            "stats": dict(self.stats),
            "detail": self.detail,
        }

    @staticmethod
    def from_dict(data: Mapping) -> "SchemeOutcome":
        return SchemeOutcome(
            scheme=data["scheme"],
            status=data["status"],
            seconds=float(data.get("seconds", 0.0)),
            stats=dict(data.get("stats", {})),
            detail=data.get("detail", ""),
        )


@dataclass
class PortfolioResult:
    """Outcome of one portfolio-served optimization request.

    Attributes:
        program: program name.
        fingerprint: the request fingerprint (cache key half).
        winner: scheme that supplied the layouts (None only when every
            scheme failed *and* the weighted fallback was unavailable).
        layouts: one layout per declared array.
        exact: True when the layouts satisfy every constraint.
        solve_seconds: end-to-end request latency (build + race).
        outcomes: per-scheme outcome table.
        from_cache: True when served from the result cache.
        network: the built network with provenance (None when the
            result came from the cache or crossed a process boundary).
        engine: the propagation engine the race resolved to
            (``"bitset"`` / ``"native"``; None for cached results --
            engine choice never changes the answer, only its cost).
    """

    program: str
    fingerprint: str
    winner: str | None
    layouts: dict[str, Layout]
    exact: bool
    solve_seconds: float
    outcomes: tuple[SchemeOutcome, ...]
    from_cache: bool = False
    network: LayoutNetwork | None = None
    engine: str | None = None

    def winner_stats(self) -> SolverStats:
        """The winning scheme's effort counters (zeros when unknown)."""
        for outcome in self.outcomes:
            if outcome.scheme == self.winner and outcome.stats:
                known = {f for f in SolverStats.__dataclass_fields__}
                return SolverStats(
                    **{k: v for k, v in outcome.stats.items() if k in known}
                )
        return SolverStats()

    def to_dict(self) -> dict:
        """JSON-serializable form (drops the non-serializable network)."""
        return {
            "program": self.program,
            "fingerprint": self.fingerprint,
            "winner": self.winner,
            "exact": self.exact,
            "solve_seconds": self.solve_seconds,
            "layouts": {
                name: {"dimension": layout.dimension, "rows": [list(r) for r in layout.rows]}
                for name, layout in self.layouts.items()
            },
            "outcomes": [outcome.as_dict() for outcome in self.outcomes],
        }

    @staticmethod
    def from_dict(data: Mapping, from_cache: bool = False) -> "PortfolioResult":
        layouts = {
            name: Layout(entry["dimension"], [tuple(r) for r in entry["rows"]])
            for name, entry in data["layouts"].items()
        }
        return PortfolioResult(
            program=data["program"],
            fingerprint=data["fingerprint"],
            winner=data["winner"],
            layouts=layouts,
            exact=bool(data["exact"]),
            solve_seconds=float(data["solve_seconds"]),
            outcomes=tuple(
                SchemeOutcome.from_dict(item) for item in data["outcomes"]
            ),
            from_cache=from_cache,
        )


def _make_solver(scheme: str, seed: int):
    """Instantiate a scheme by name (registry, extras, split family)."""
    from repro.opt.optimizer import _SCHEMES

    if scheme in EXTRA_SCHEMES:
        return EXTRA_SCHEMES[scheme](seed)
    workers = split_workers(scheme)
    if workers is not None:
        from repro.csp.splitsearch import SplitSearchSolver

        return SplitSearchSolver(seed=seed, workers=workers)
    return _SCHEMES[scheme](seed)


def _solve_scheme(
    scheme: str,
    kernel: CompiledNetwork,
    weights: Mapping[frozenset[str], float] | None,
    seed: int,
    deadline_at: float | None = None,
) -> dict:
    """Run one scheme to completion; returns a picklable payload.

    Every scheme runs on the *compiled* kernel: the race compiles the
    network exactly once and ships the same kernel to every worker, so
    no scheme pays compilation (or, with ``fork``, even a copy).

    ``deadline_at`` is the race's absolute ``time.monotonic`` expiry:
    schemes with a cooperative ``set_deadline`` hook get the remaining
    budget so they stop mid-search instead of waiting to be killed
    (CLOCK_MONOTONIC is system-wide, so the absolute stamp survives
    the fork into a racer process).
    """
    start = time.perf_counter()
    solver = _make_solver(scheme, seed)
    if deadline_at is not None and hasattr(solver, "set_deadline"):
        solver.set_deadline(deadline_at - time.monotonic())
    try:
        if isinstance(solver, BranchAndBoundSolver):
            weighted_result = solver.solve_compiled(kernel, weights)
            return {
                "assignment": dict(weighted_result.assignment),
                "sat": True,
                "exact": weighted_result.fully_satisfied,
                "complete": True,
                "stats": weighted_result.stats.as_dict(),
                "seconds": time.perf_counter() - start,
            }
        result = solver.solve(kernel)
        return {
            "assignment": dict(result.assignment) if result.assignment else None,
            "sat": result.satisfiable,
            "exact": result.satisfiable,
            "complete": result.complete,
            "stats": result.stats.as_dict(),
            "seconds": time.perf_counter() - start,
        }
    finally:
        close = getattr(solver, "close", None)
        if callable(close):  # split solvers own a worker pool
            close()


def _race_worker(
    result_queue, scheme, kernel, weights, seed, deadline_at=None
) -> None:
    """Process entry point: solve and report (never raises)."""
    try:
        payload = _solve_scheme(scheme, kernel, weights, seed, deadline_at)
        result_queue.put((scheme, payload, None))
    except BaseException as exc:  # report, don't die silently
        result_queue.put((scheme, None, repr(exc)))


def _payload_status(payload: dict) -> str:
    """Outcome status of a finished, non-winning scheme."""
    if payload["sat"]:
        return "solved" if payload["exact"] else "partial"
    return "unsat" if payload["complete"] else "gave-up"


class PortfolioSolver:
    """Serve layout-optimization requests through a racing portfolio.

    Args:
        config: which schemes to race and the per-race deadline.
        options: network-construction options (benchmark defaults when
            omitted must be supplied by the caller explicitly).
        cache: optional result cache consulted before and updated after
            every race.
        network_cache: optional mutable mapping ``fingerprint ->
            LayoutNetwork``.  A resident process (the daemon's warm
            workers) hands every solver in the process one shared
            bounded mapping, so repeat cache *misses* -- non-exact
            retries, evaluate sweeps over many machine models -- skip
            the network build and reuse the already-compiled kernel.
    """

    def __init__(
        self,
        config: PortfolioConfig | None = None,
        options: BuildOptions | None = None,
        cache: ResultCache | None = None,
        network_cache=None,
    ):
        self._config = config if config is not None else PortfolioConfig()
        self._options = options if options is not None else BuildOptions()
        self._cache = cache
        self._network_cache = network_cache

    @property
    def config(self) -> PortfolioConfig:
        return self._config

    def optimize(
        self, program: Program, fingerprint: str | None = None
    ) -> PortfolioResult:
        """Serve one request: cache lookup, else race, then cache store.

        ``fingerprint`` lets batch callers that already fingerprinted
        the request (for dedup) skip the recomputation.
        """
        if fingerprint is None:
            fingerprint = request_fingerprint(program, self._options)
        token = self._config.token()
        if self._cache is not None:
            with obs_trace.span("cache_lookup"):
                cached = self._cache.get(fingerprint, token)
            if cached is not None:
                obs_metrics.counter(
                    "repro_portfolio_requests_total",
                    labels={"source": "cache"},
                    help="Portfolio requests by serving source.",
                )
                result = PortfolioResult.from_dict(cached, from_cache=True)
                # The fingerprint excludes the program *name*, so the
                # entry may come from a renamed twin: report the
                # requester's name, not the original's.
                result.program = program.name
                return result

        obs_metrics.counter(
            "repro_portfolio_requests_total",
            labels={"source": "race"},
            help="Portfolio requests by serving source.",
        )
        start = time.perf_counter()
        layout_network = None
        if self._network_cache is not None:
            layout_network = self._network_cache.get(fingerprint)
        if layout_network is None:
            with obs_trace.span("build_network"):
                layout_network = build_layout_network(program, self._options)
            if self._network_cache is not None:
                self._network_cache[fingerprint] = layout_network
        with obs_trace.span("compile_kernel"):
            kernel = layout_network.kernel()
        # Per-pass timing, same vocabulary the pipeline runner uses, so
        # daemon ``stats`` shows one per-pass breakdown no matter which
        # path (pipeline façade or direct portfolio) served the solve.
        record_pass_seconds("build", time.perf_counter() - start)
        engine = resolve_engine(ENGINE_AUTO, kernel)
        mode = (
            "parallel"
            if self._config.parallel and len(self._config.schemes) > 1
            else "sequential"
        )
        race_start = time.perf_counter()
        with obs_trace.span("race", mode=mode, engine=engine) as race_span:
            winner, exact, assignment, outcomes = self._race(
                kernel, layout_network.weights
            )
        race_seconds = time.perf_counter() - race_start
        if assignment is None:
            # Nothing came back (all errors/timeouts): fall back to the
            # weighted branch & bound in-process, like LayoutOptimizer
            # does for UNSAT networks -- a best-effort answer always
            # beats none.
            with obs_trace.span("weighted_fallback"):
                weighted_result = BranchAndBoundSolver().solve_compiled(
                    layout_network.kernel(), layout_network.weights
                )
            assignment = dict(weighted_result.assignment)
            exact = weighted_result.fully_satisfied
            winner = "weighted-fallback"
            outcomes += (
                SchemeOutcome(
                    scheme="weighted-fallback",
                    status="won",
                    seconds=weighted_result.stats.time_seconds,
                    stats=weighted_result.stats.as_dict(),
                ),
            )
        self._record_race(race_span, engine, mode, winner, outcomes, race_seconds)
        record_pass_seconds("solve", time.perf_counter() - race_start)
        if exact:
            repair_start = time.perf_counter()
            with obs_trace.span("repair_inflation"):
                repair_inflation(layout_network.network, assignment, program)
            record_pass_seconds("repair", time.perf_counter() - repair_start)

        layouts: dict[str, Layout] = {}
        for decl in program.arrays:
            chosen = assignment.get(decl.name)
            layouts[decl.name] = (
                chosen if chosen is not None else row_major(decl.rank)
            )
        result = PortfolioResult(
            program=program.name,
            fingerprint=fingerprint,
            winner=winner,
            layouts=layouts,
            exact=exact,
            solve_seconds=time.perf_counter() - start,
            outcomes=outcomes,
            network=layout_network,
            engine=engine,
        )
        if self._cache is not None and result.exact:
            # Non-exact results are deadline- (and luck-) shaped: a
            # retry with a longer deadline could find an exact
            # solution, so caching them would freeze a bad answer.
            self._cache.put(fingerprint, token, result.to_dict())
        return result

    def _record_race(
        self,
        race_span,
        engine: str,
        mode: str,
        winner: str | None,
        outcomes: tuple[SchemeOutcome, ...],
        race_seconds: float,
    ) -> None:
        """Fold one finished race into the telemetry layer.

        Per-scheme race spans are *synthesized in the parent* from the
        outcome table: parallel racers are separate short-lived
        processes whose in-process telemetry dies with them, but their
        wall-clock and effort counters come home in the table.  Each
        synthesized span starts at the race's own start (all racers
        launch together) and lasts the scheme's reported seconds.
        """
        obs_metrics.observe(
            "repro_portfolio_race_seconds",
            race_seconds,
            labels={"mode": mode},
            help="Wall-clock seconds per portfolio race.",
        )
        obs_metrics.counter(
            "repro_portfolio_wins_total",
            labels={"scheme": winner if winner is not None else "none"},
            help="Races won, by scheme (weighted-fallback included).",
        )
        race_span.set_attribute("winner", winner)
        for outcome in outcomes:
            obs_metrics.counter(
                "repro_portfolio_scheme_outcomes_total",
                labels={"scheme": outcome.scheme, "status": outcome.status},
                help="Per-scheme race outcome table, folded over time.",
            )
            for counter_name in ("nodes", "consistency_checks"):
                effort = outcome.stats.get(counter_name)
                if effort:
                    obs_metrics.observe(
                        "repro_engine_effort",
                        float(effort),
                        labels={"engine": engine, "counter": counter_name},
                        help="Machine-independent solver effort per engine.",
                        bounds=EFFORT_BUCKETS,
                    )
            if race_span and (outcome.seconds or outcome.status == "won"):
                synthesized = race_span.child(
                    f"scheme:{outcome.scheme}",
                    scheme=outcome.scheme,
                    status=outcome.status,
                    won=(outcome.scheme == winner),
                )
                synthesized.start_ns = race_span.start_ns
                synthesized.end_ns = synthesized.start_ns + int(
                    outcome.seconds * 1e9
                )

    # -- the race --------------------------------------------------------

    def _race(
        self,
        kernel: CompiledNetwork,
        weights: Mapping[frozenset[str], float] | None,
    ) -> tuple[str | None, bool, dict | None, tuple[SchemeOutcome, ...]]:
        """Run every scheme, return (winner, exact, assignment, table).

        The kernel is compiled exactly once (by the network builder);
        both race modes hand the same compiled form to every scheme.
        """
        if not self._config.parallel or len(self._config.schemes) == 1:
            return self._run_sequential(kernel, weights)
        return self._run_parallel(kernel, weights)

    def _run_sequential(
        self, kernel, weights
    ) -> tuple[str | None, bool, dict | None, tuple[SchemeOutcome, ...]]:
        deadline = time.perf_counter() + self._config.deadline_seconds
        deadline_at = time.monotonic() + self._config.deadline_seconds
        outcomes: list[SchemeOutcome] = []
        fallback: tuple[str, dict] | None = None
        winner: tuple[str, dict] | None = None
        for index, scheme in enumerate(self._config.schemes):
            if winner is not None or time.perf_counter() >= deadline:
                status = "skipped" if winner is not None else "timeout"
                outcomes.extend(
                    SchemeOutcome(scheme=name, status=status)
                    for name in self._config.schemes[index:]
                )
                break
            try:
                payload = _solve_scheme(
                    scheme,
                    kernel,
                    weights,
                    self._config.scheme_seed(index),
                    deadline_at=deadline_at,
                )
            except Exception as exc:
                outcomes.append(
                    SchemeOutcome(scheme=scheme, status="error", detail=repr(exc))
                )
                continue
            if payload["sat"] and payload["exact"]:
                winner = (scheme, payload)
                outcomes.append(
                    SchemeOutcome(
                        scheme=scheme,
                        status="won",
                        seconds=payload["seconds"],
                        stats=payload["stats"],
                    )
                )
                continue
            if payload["sat"] and fallback is None:
                fallback = (scheme, payload)
            outcomes.append(
                SchemeOutcome(
                    scheme=scheme,
                    status=_payload_status(payload),
                    seconds=payload["seconds"],
                    stats=payload["stats"],
                )
            )
        return self._conclude(winner, fallback, outcomes)

    def _run_parallel(
        self, kernel, weights
    ) -> tuple[str | None, bool, dict | None, tuple[SchemeOutcome, ...]]:
        context = fork_context()
        result_queue = context.Queue()
        deadline = time.perf_counter() + self._config.deadline_seconds
        deadline_at = time.monotonic() + self._config.deadline_seconds
        processes: dict[str, multiprocessing.Process] = {}
        for index, scheme in enumerate(self._config.schemes):
            process = context.Process(
                target=_race_worker,
                args=(
                    result_queue,
                    scheme,
                    kernel,
                    weights,
                    self._config.scheme_seed(index),
                    deadline_at,
                ),
                daemon=True,
            )
            processes[scheme] = process
            process.start()

        pending = set(processes)
        finished: dict[str, SchemeOutcome] = {}
        suspect_since: dict[str, float] = {}
        winner: tuple[str, dict] | None = None
        fallback: tuple[str, dict] | None = None
        timed_out = False
        while pending:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                timed_out = True
                break
            try:
                scheme, payload, error = result_queue.get(
                    timeout=min(0.1, remaining)
                )
            except queue_module.Empty:
                # A worker that died without reporting (e.g. OOM-killed)
                # would otherwise hang the race until the deadline.  An
                # *exited* worker's result may still be in flight in the
                # queue's feeder pipe, so give it a grace period before
                # declaring it dead instead of trusting Queue.empty().
                now = time.perf_counter()
                for scheme in list(pending):
                    process = processes[scheme]
                    if process.is_alive():
                        suspect_since.pop(scheme, None)
                        continue
                    first_seen = suspect_since.setdefault(scheme, now)
                    if now - first_seen < _DEAD_WORKER_GRACE_SECONDS:
                        continue
                    pending.discard(scheme)
                    finished[scheme] = SchemeOutcome(
                        scheme=scheme,
                        status="error",
                        detail=f"worker died (exitcode {process.exitcode})",
                    )
                continue
            pending.discard(scheme)
            if error is not None:
                finished[scheme] = SchemeOutcome(
                    scheme=scheme, status="error", detail=error
                )
                continue
            if payload["sat"] and payload["exact"] and winner is None:
                winner = (scheme, payload)
                finished[scheme] = SchemeOutcome(
                    scheme=scheme,
                    status="won",
                    seconds=payload["seconds"],
                    stats=payload["stats"],
                )
                break  # first winner: stop listening, cancel the rest
            if payload["sat"] and fallback is None:
                fallback = (scheme, payload)
            finished[scheme] = SchemeOutcome(
                scheme=scheme,
                status=_payload_status(payload),
                seconds=payload["seconds"],
                stats=payload["stats"],
            )

        # Graceful cancellation of every straggler.
        straggler_status = "timeout" if timed_out and winner is None else "cancelled"
        for scheme in pending:
            finished.setdefault(
                scheme, SchemeOutcome(scheme=scheme, status=straggler_status)
            )
        for process in processes.values():
            if process.is_alive():
                process.terminate()
        for process in processes.values():
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=1.0)
        result_queue.close()
        result_queue.cancel_join_thread()

        outcomes = [finished[s] for s in self._config.schemes if s in finished]
        return self._conclude(winner, fallback, outcomes)

    @staticmethod
    def _conclude(
        winner: tuple[str, dict] | None,
        fallback: tuple[str, dict] | None,
        outcomes: list[SchemeOutcome] | tuple[SchemeOutcome, ...],
    ) -> tuple[str | None, bool, dict | None, tuple[SchemeOutcome, ...]]:
        outcomes = tuple(outcomes)
        if winner is not None:
            scheme, payload = winner
            return scheme, True, payload["assignment"], outcomes
        if fallback is not None:
            scheme, payload = fallback
            # Promote the best-effort result to winner in the table.
            outcomes = tuple(
                replace(o, status="won") if o.scheme == scheme else o
                for o in outcomes
            )
            return scheme, bool(payload["exact"]), payload["assignment"], outcomes
        return None, False, None, outcomes
