"""The service's ``evaluate`` request kind.

The portfolio answers "what layouts should this program use?"; an
evaluation request answers "what would these layouts *cost*?" -- on a
per-request machine model, so one deployment prices the same program
for many cache geometries.  A request without explicit layouts first
runs the optimizing portfolio (racing, cached) and then prices the
winner, which is how batch callers close the analytic <-> empirical
loop remotely.

Results are cached alongside optimization results in the same
:class:`~repro.service.cache.ResultCache`, keyed by the request
fingerprint plus an evaluation token that folds in the cost model,
the hierarchy fingerprint and (when given) the explicit layouts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import Mapping, Sequence

from repro.cachesim.hierarchy import HierarchyConfig
from repro.eval import get_cost_model
from repro.ir.program import Program
from repro.layout.layout import Layout
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.opt.network_builder import BuildOptions
from repro.opt.optimizer import select_transforms
from repro.opt.passes.base import record_pass_seconds
from repro.service.cache import ResultCache
from repro.service.fingerprint import (
    canonical_value_token,
    request_fingerprint,
)
from repro.service.portfolio import PortfolioConfig, PortfolioSolver


def hierarchy_from_overrides(overrides: Mapping[str, int]) -> HierarchyConfig:
    """A :class:`HierarchyConfig` with the named fields replaced.

    This is the wire form the daemon protocol ships (``"hierarchy":
    {"l1_size": 16384, ...}``); unknown fields and non-integer values
    raise rather than being silently dropped.

    Raises:
        ValueError: for unknown fields, bad integers, or geometry the
            config itself rejects.
    """
    known = {f.name for f in dataclass_fields(HierarchyConfig)}
    cleaned: dict[str, int] = {}
    for name, value in overrides.items():
        if name not in known:
            raise ValueError(
                f"unknown hierarchy field {name!r}; know {sorted(known)}"
            )
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"hierarchy field {name} needs an integer, got {value!r}"
            )
        cleaned[name] = value
    return replace(HierarchyConfig(), **cleaned)


def parse_hierarchy_overrides(spec: str) -> HierarchyConfig:
    """Parse CLI-style per-request hierarchy overrides.

    ``"l1_size=16384,l2_latency=9"`` replaces the named fields of the
    paper's default :class:`HierarchyConfig`; unknown fields and
    malformed values raise.

    Raises:
        ValueError: for unknown fields, bad integers, or geometry the
            config itself rejects.
    """
    known = {f.name for f in dataclass_fields(HierarchyConfig)}
    overrides: dict[str, int] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, raw = item.partition("=")
        name = name.strip()
        if name not in known:
            raise ValueError(
                f"unknown hierarchy field {name!r}; know {sorted(known)}"
            )
        try:
            overrides[name] = int(raw.strip())
        except ValueError:
            raise ValueError(f"hierarchy field {name} needs an integer, got {raw!r}")
    return hierarchy_from_overrides(overrides)


@dataclass(frozen=True)
class EvaluationRequest:
    """One evaluation request.

    Attributes:
        program: the program to price.
        cost_model: registered cost-model name.
        hierarchy: per-request machine model (None = the paper's).
            Used by the ``simulated`` model (geometry + latencies) and
            the ``analytic`` model (its L1 line size prices spatial
            locality); the ``weighted`` model has no machine notion,
            so combining it with an override is rejected rather than
            silently ignored.
        layouts: explicit layouts to price; None prices the layouts
            the optimizing portfolio chooses for the program.
        max_iterations_per_nest: iteration-space sampling cap for the
            simulated model (None = exact).

    Raises:
        ValueError: for a non-positive sampling cap, or a hierarchy
            override on a model that cannot honor it.
    """

    program: Program
    cost_model: str = "simulated"
    hierarchy: HierarchyConfig | None = None
    layouts: Mapping[str, Layout] | None = None
    max_iterations_per_nest: int | None = None

    def __post_init__(self) -> None:
        if self.max_iterations_per_nest is not None:
            if self.max_iterations_per_nest <= 0:
                raise ValueError("max_iterations_per_nest must be positive")
            if self.cost_model != "simulated":
                raise ValueError(
                    f"cost model {self.cost_model!r} does not simulate; "
                    "drop the iteration-sampling cap"
                )
        if self.hierarchy is not None and not self.uses_hierarchy:
            raise ValueError(
                f"cost model {self.cost_model!r} does not use a cache "
                "hierarchy; drop the hierarchy override"
            )

    @property
    def uses_hierarchy(self) -> bool:
        """True when the model's score depends on the machine model."""
        return self.cost_model in ("simulated", "analytic")

    def token(self, portfolio_token: str) -> str:
        """Canonical cache token of everything but the program."""
        if self.uses_hierarchy:
            hierarchy = (
                self.hierarchy if self.hierarchy is not None else HierarchyConfig()
            )
            hierarchy_token = hierarchy.fingerprint()
        else:
            hierarchy_token = "hier=n/a"
        if self.layouts is None:
            layouts_token = f"opt:{portfolio_token}"
        else:
            layouts_token = ";".join(
                f"{name}={canonical_value_token(layout)}"
                for name, layout in sorted(self.layouts.items())
            )
        cap = self.max_iterations_per_nest
        return (
            f"evaluate[{self.cost_model}]{hierarchy_token}"
            f"cap={cap}layouts[{layouts_token}]"
        )


@dataclass
class EvaluationResult:
    """Outcome of one evaluation request.

    Attributes:
        program: program name.
        cost_model: model that produced the score.
        value: the score (lower is better).
        unit: the score's unit.
        details: model-specific breakdown (cache report and hit rates
            for the simulated model).
        layouts: the layouts that were priced.
        winner: portfolio winner when the request optimized first
            (None for explicit-layout requests).
        seconds: latency of *this* request -- the lookup time on a
            cache hit, the full optimize+score time otherwise.
        exact: True when the priced layouts satisfy every constraint
            (always True for explicit-layout requests; mirrors the
            portfolio's exactness otherwise -- best-effort answers are
            never frozen into the cache).
        from_cache: True when served from the result cache.
        engine: the propagation engine of the embedded optimization
            (None for cached or explicit-layout requests).  Serving
            telemetry; not part of the wire form.
    """

    program: str
    cost_model: str
    value: float
    unit: str
    details: dict
    layouts: dict[str, Layout]
    winner: str | None
    seconds: float
    exact: bool = True
    from_cache: bool = False
    engine: str | None = None

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "cost_model": self.cost_model,
            "value": self.value,
            "unit": self.unit,
            "details": _plain(self.details),
            "layouts": {
                name: {
                    "dimension": layout.dimension,
                    "rows": [list(row) for row in layout.rows],
                }
                for name, layout in self.layouts.items()
            },
            "winner": self.winner,
            "seconds": self.seconds,
            "exact": self.exact,
        }

    @staticmethod
    def from_dict(data: Mapping, from_cache: bool = False) -> "EvaluationResult":
        return EvaluationResult(
            program=data["program"],
            cost_model=data["cost_model"],
            value=float(data["value"]),
            unit=data["unit"],
            details=dict(data.get("details", {})),
            layouts={
                name: Layout(entry["dimension"], [tuple(r) for r in entry["rows"]])
                for name, entry in data["layouts"].items()
            },
            winner=data.get("winner"),
            seconds=float(data["seconds"]),
            exact=bool(data.get("exact", True)),
            from_cache=from_cache,
        )


def _plain(value):
    """Recursively convert a details mapping to JSON-encodable types."""
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class EvaluationService:
    """Serve evaluation requests, sharing the portfolio and cache.

    Args:
        config: portfolio used when a request needs optimizing first.
        options: network-construction options for that portfolio.
        cache: optional shared result cache (evaluation entries use
            their own token namespace, so one cache serves both
            request kinds).
        network_cache: optional shared ``fingerprint -> LayoutNetwork``
            mapping handed to the embedded portfolio solver (see
            :class:`~repro.service.portfolio.PortfolioSolver`); a
            resident worker process reuses built networks across
            evaluate sweeps this way.
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
        self._solver = PortfolioSolver(
            self._config, options=self._options, cache=cache,
            network_cache=network_cache,
        )

    def evaluate(self, request: EvaluationRequest) -> EvaluationResult:
        """Serve one request: cache lookup, else price (and maybe solve)."""
        start = time.perf_counter()
        fingerprint = request_fingerprint(request.program, self._options)
        token = request.token(self._config.token())
        if self._cache is not None:
            with obs_trace.span("cache_lookup"):
                cached = self._cache.get(fingerprint, token)
            if cached is not None:
                obs_metrics.counter(
                    "repro_evaluate_requests_total",
                    labels={"source": "cache"},
                    help="Evaluation requests by serving source.",
                )
                result = EvaluationResult.from_dict(cached, from_cache=True)
                result.program = request.program.name
                result.seconds = time.perf_counter() - start
                return result

        obs_metrics.counter(
            "repro_evaluate_requests_total",
            labels={"source": "scored"},
            help="Evaluation requests by serving source.",
        )
        winner = None
        layouts = request.layouts
        exact = True
        engine = None
        if layouts is None:
            with obs_trace.span("optimize"):
                outcome = self._solver.optimize(
                    request.program, fingerprint=fingerprint
                )
            layouts = outcome.layouts
            winner = outcome.winner
            exact = outcome.exact
            engine = outcome.engine
        model_kwargs: dict = {}
        if request.cost_model == "simulated":
            model_kwargs["hierarchy_config"] = request.hierarchy
            model_kwargs["max_iterations_per_nest"] = (
                request.max_iterations_per_nest
            )
        elif request.cost_model == "analytic" and request.hierarchy is not None:
            # The analytic model's machine knowledge is the L1 line
            # size (it prices spatial locality per line of elements).
            model_kwargs["line_size"] = request.hierarchy.l1_line
        elif request.cost_model == "weighted":
            model_kwargs["options"] = self._options
        model = get_cost_model(request.cost_model, **model_kwargs)
        transform_start = time.perf_counter()
        transforms = select_transforms(
            request.program,
            layouts,
            self._options.include_reversals,
            self._options.skew_factors,
        )
        record_pass_seconds("transform", time.perf_counter() - transform_start)
        score_start = time.perf_counter()
        with obs_trace.span("score", model=request.cost_model):
            cost = model.score(request.program, layouts, transforms)
        record_pass_seconds("score", time.perf_counter() - score_start)
        result = EvaluationResult(
            program=request.program.name,
            cost_model=cost.model,
            value=cost.value,
            unit=cost.unit,
            details=_plain(dict(cost.details)),
            layouts=dict(layouts),
            winner=winner,
            seconds=time.perf_counter() - start,
            exact=exact,
            engine=engine,
        )
        if self._cache is not None and exact:
            self._cache.put(fingerprint, token, result.to_dict())
        return result


#: Per-process service reuse: a pool worker serves many map items, so
#: rebuilding the evaluation/portfolio plumbing per request is waste.
_WORKER_SERVICES: dict[tuple, "EvaluationService"] = {}


def _evaluate_one(
    request: EvaluationRequest,
    config: PortfolioConfig,
    options: BuildOptions,
) -> dict:
    """Pool worker: serve one request, return the serialized result."""
    key = (repr(config), repr(options))
    service = _WORKER_SERVICES.get(key)
    if service is None:
        if len(_WORKER_SERVICES) >= 8:  # different batches, same process
            _WORKER_SERVICES.clear()
        service = EvaluationService(config=config, options=options)
        _WORKER_SERVICES[key] = service
    return service.evaluate(request).to_dict()


def run_evaluation_batch(
    requests: Sequence[EvaluationRequest],
    config: PortfolioConfig | None = None,
    options: BuildOptions | None = None,
    cache: ResultCache | None = None,
    workers: int = 1,
    client=None,
) -> list[EvaluationResult]:
    """Serve a list of evaluation requests, preserving input order.

    Mirrors :func:`repro.service.batch.run_batch`: cache lookups and
    stores happen in the parent (pool workers are stateless), and
    ``workers > 1`` fans cache misses across a process pool.  With
    ``client`` the batch is instead pipelined through a resident
    daemon (every other argument is then the daemon's concern).

    Raises:
        ValueError: for a non-positive worker count.
        RuntimeError: when the daemon answers a request with an error.
    """
    if client is not None:
        return _run_evaluation_batch_via_daemon(requests, client)
    if workers < 1:
        raise ValueError("workers must be positive")
    config = config if config is not None else PortfolioConfig()
    options = options if options is not None else BuildOptions()
    portfolio_token = config.token()

    slots: list[EvaluationResult | None] = [None] * len(requests)
    pending: list[tuple[int, EvaluationRequest, str, str]] = []
    for index, request in enumerate(requests):
        lookup_start = time.perf_counter()
        fingerprint = request_fingerprint(request.program, options)
        token = request.token(portfolio_token)
        cached = cache.get(fingerprint, token) if cache is not None else None
        if cached is not None:
            result = EvaluationResult.from_dict(cached, from_cache=True)
            result.program = request.program.name
            result.seconds = time.perf_counter() - lookup_start
            slots[index] = result
            continue
        pending.append((index, request, fingerprint, token))

    if pending:
        if workers == 1 or len(pending) == 1:
            # In-process: hand the shared cache to the service, so the
            # embedded portfolio reuses cached *optimization* results
            # (the expensive half of an evaluate miss), duplicate
            # requests within the batch are served once, and the
            # service does its own stores.
            service = EvaluationService(config=config, options=options, cache=cache)
            for index, request, _, _ in pending:
                slots[index] = service.evaluate(request)
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                serialized = list(
                    pool.map(
                        _evaluate_one,
                        [request for _, request, _, _ in pending],
                        [config] * len(pending),
                        [options] * len(pending),
                    )
                )
            for (index, _, fingerprint, token), data in zip(pending, serialized):
                result = EvaluationResult.from_dict(data)
                slots[index] = result
                if cache is not None and result.exact:
                    cache.put(fingerprint, token, result.to_dict())

    return [result for result in slots if result is not None]


def request_to_wire(request: EvaluationRequest) -> dict:
    """The daemon-protocol payload of one evaluation request."""
    from repro.service.stream import evaluate_request

    hierarchy = None
    if request.hierarchy is not None:
        hierarchy = {
            f.name: getattr(request.hierarchy, f.name)
            for f in dataclass_fields(HierarchyConfig)
        }
    return evaluate_request(
        request.program,
        cost_model=request.cost_model,
        hierarchy=hierarchy,
        layouts=request.layouts,
        sim_cap=request.max_iterations_per_nest,
    )


def _run_evaluation_batch_via_daemon(
    requests: Sequence[EvaluationRequest], client
) -> list[EvaluationResult]:
    """Pipeline evaluation requests through a resident daemon."""
    responses = client.request_many(
        [request_to_wire(request) for request in requests]
    )
    results: list[EvaluationResult] = []
    for request, response in zip(requests, responses):
        if not response.get("ok"):
            raise RuntimeError(
                f"daemon error for {request.program.name}: "
                f"{response.get('error', 'unknown error')}"
            )
        result = EvaluationResult.from_dict(
            response["result"], from_cache=bool(response.get("from_cache"))
        )
        result.program = request.program.name
        result.seconds = float(response.get("seconds", result.seconds))
        results.append(result)
    return results
