"""Workload inputs, made from the seed alone.

Every input comes from ``--seed``: the same seed gives byte-identical
request lines and networks.  The program under test only ever sees the
generated inputs, never the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.bench import (
    BENCHMARK_NAMES,
    benchmark_build_options,
    build_benchmark,
    random_suite,
)
from repro.csp.random_networks import random_network
from repro.ir.program import Program
from repro.opt.network_builder import build_layout_network
from repro.service.stream import program_to_wire

#: Random programs served next to the five paper programs.
RANDOM_PROGRAMS = 80
#: Every EVALUATE_EVERY-th program is also sent as an ``evaluate``.
EVALUATE_EVERY = 3
#: Iteration-space sampling cap of the simulated cost model.
SIM_CAP = 2000
#: The portfolio the daemon races (sequential: deterministic winners).
PORTFOLIO = ("enhanced", "cbj", "weighted")


@dataclass(frozen=True)
class Request:
    """One pre-encoded request line.

    ``program`` is the program the answer must match: for a renamed
    twin it is the original, because a fingerprint hit serves the
    original's cached answer under the twin's name.
    """

    kind: str
    program: Program
    sent_name: str
    body: bytes  # the JSON object after its id field, up to the newline

    def line(self, request_id: int) -> bytes:
        return b'{"id":%d,' % request_id + self.body

    @property
    def canonical_key(self) -> tuple[str, str]:
        return (self.kind, self.program.name)


def _body(payload: dict) -> bytes:
    encoded = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return encoded[1:] + b"\n"  # drop "{"; line() puts it back with the id


def solve_request(program: Program, wire: dict | None = None) -> Request:
    wire = wire if wire is not None else program_to_wire(program)
    return Request("solve", program, wire["name"], _body({"kind": "solve", "program": wire}))


def evaluate_request(program: Program, wire: dict | None = None) -> Request:
    wire = wire if wire is not None else program_to_wire(program)
    payload = {
        "kind": "evaluate",
        "program": wire,
        "cost_model": "simulated",
        "sim_cap": SIM_CAP,
    }
    return Request("evaluate", program, wire["name"], _body(payload))


def serving_programs(seed: int) -> list[Program]:
    """The five paper programs plus ``random_suite(RANDOM_PROGRAMS, seed)``."""
    return [build_benchmark(name) for name in BENCHMARK_NAMES] + list(
        random_suite(RANDOM_PROGRAMS, seed)
    )


def serving_mix(programs: list[Program]) -> list[Request]:
    """Each program once as ``solve``; a fixed share also as ``evaluate``.

    The evaluate follows its program's solve, as a client pricing the
    layouts it was just served would send it.
    """
    requests = []
    for index, program in enumerate(programs):
        wire = program_to_wire(program)
        requests.append(solve_request(program, wire))
        if index % EVALUATE_EVERY == 0:
            requests.append(evaluate_request(program, wire))
    return requests


def renamed_twin(program: Program, rng: random.Random) -> Program:
    """Same fingerprint, new name, arrays and nests declared shuffled."""
    arrays = list(program.arrays)
    nests = list(program.nests)
    rng.shuffle(arrays)
    rng.shuffle(nests)
    return Program(f"{program.name}-twin", tuple(arrays), tuple(nests))


def warm_cycle(mix: list[Request], seed: int) -> list[Request]:
    """The replayed warm traffic: every request once repeated, once twinned.

    Repeats carry the byte-identical program of the fill pass; twins a
    renamed program with shuffled declarations (same fingerprint), so a
    raw-bytes shortcut cannot serve them.  The order is shuffled.
    """
    rng = random.Random(seed)
    cycle = []
    for request in mix:
        cycle.append(request)
        twin_wire = program_to_wire(renamed_twin(request.program, rng))
        if request.kind == "solve":
            twin = solve_request(request.program, twin_wire)
        else:
            twin = evaluate_request(request.program, twin_wire)
        cycle.append(twin)
    rng.shuffle(cycle)
    return cycle


# -- search_hard ---------------------------------------------------------

#: Random networks per run: (variables, domain size, density, tightness)
#: cells around the SAT/UNSAT crossover of Model B networks (about half
#: of the tightness-0.48 cell is satisfiable), each drawn
#: RANDOM_NETWORKS // len(HARD_CELLS) times with its own seed.  Many
#: small instances rather than a few large ones keep a run's figures
#: steady across seeds: hardness at the crossover is heavy-tailed, and
#: an UNSAT instance costs more than a SAT one, so the median latency
#: follows the seed's UNSAT count (binomial: across ten seeds the
#: median instance's consistency checks spread by 7% of their median
#: with 960 networks).  A round of 960 takes 10-15 s, so a 25 s run
#: measures two or three whole rounds.
HARD_CELLS = (
    (10, 5, 0.5, 0.44),
    (10, 5, 0.5, 0.48),
    (10, 5, 0.5, 0.52),
    (11, 5, 0.5, 0.44),
)
RANDOM_NETWORKS = 960


@dataclass(frozen=True)
class HardInstance:
    name: str
    network: object  # ConstraintNetwork
    params: tuple | None  # random_network arguments; None for paper networks
    program: Program | None  # the paper program a layout network came from


def hard_instances(seed: int) -> list[HardInstance]:
    """Unplanted random networks near the crossover plus the paper networks."""
    instances = []
    for index in range(RANDOM_NETWORKS):
        variables, domain, density, tightness = HARD_CELLS[index % len(HARD_CELLS)]
        params = (variables, domain, density, tightness, seed * 100_003 + index)
        network = random_network(*params, plant_solution=False)
        instances.append(HardInstance(f"rand-{index:03d}", network, params, None))
    options = benchmark_build_options()
    for name in BENCHMARK_NAMES:
        program = build_benchmark(name)
        network = build_layout_network(program, options).network
        instances.append(HardInstance(name, network, None, program))
    return instances


def rebuild_network(instance: HardInstance):
    """An independently built copy of an instance's network."""
    if instance.params is not None:
        return random_network(*instance.params, plant_solution=False)
    return build_layout_network(instance.program, benchmark_build_options()).network
