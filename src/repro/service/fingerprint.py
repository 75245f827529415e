"""Canonical fingerprints for programs, networks and configurations.

The serving layer caches solver results across process boundaries, so
cache keys must be *stable* (identical across interpreter runs -- no
salted ``hash()``) and *order-independent* (the same program or network
assembled in a different insertion order fingerprints identically).
Everything here reduces a structure to a canonical nested form, encodes
it as JSON, and hashes it with SHA-256.

Three producers:

* :func:`network_fingerprint` -- over a :class:`ConstraintNetwork`'s
  variables, sorted domains and orientation-normalized constraint
  pair-sets (via :meth:`ConstraintNetwork.canonical_form`);
* :func:`program_fingerprint` -- over a :class:`Program`'s array
  declarations and loop nests (declaration order ignored);
* :func:`request_fingerprint` -- a program plus the
  :class:`BuildOptions` that turn it into a network: the cache key of
  one optimization request.

Canonicalizing a program means decoding it from the wire first, which
costs more than answering a cached request.  A *request alias* skips
both for an identical repeat: :func:`payload_digest` hashes the raw
request payload, and a bounded :class:`BoundedMemo` maps that digest to
what was computed for it.  An entry is written only after the payload's
program decoded, validated and fingerprinted, so a digest hit is a copy
of a validated request.  :func:`routing_key` reads such an alias for
the cluster's hash-ring routing.
"""

from __future__ import annotations

import hashlib
import json
import marshal
from collections import OrderedDict
from typing import Hashable, Mapping

from repro.csp.compiled import CompiledNetwork, as_compiled
from repro.csp.network import ConstraintNetwork
from repro.ir.expr import AffineExpr
from repro.ir.program import Program
from repro.layout.layout import Layout
from repro.opt.network_builder import BuildOptions
from repro.service.stream import program_from_wire

#: Length (hex characters) of every fingerprint digest.
DIGEST_LENGTH = 32


def canonical_value_token(value: Hashable) -> str:
    """A stable, collision-resistant string token for a domain value.

    Handles the value types that actually appear in this codebase's
    networks -- layouts, ints, strings, bools, None, and tuples thereof
    -- with explicit type tags so e.g. ``1`` and ``"1"`` and ``True``
    stay distinct.  Unknown types fall back to ``repr`` (stable for
    well-behaved value classes; layouts and the random-network ints
    never reach this branch).
    """
    if isinstance(value, Layout):
        return f"layout:{value.dimension}:{value.rows!r}"
    if isinstance(value, bool):
        return f"bool:{value}"
    if isinstance(value, int):
        return f"int:{value}"
    if isinstance(value, str):
        return f"str:{value}"
    if value is None:
        return "none"
    if isinstance(value, float):
        return f"float:{value!r}"
    if isinstance(value, tuple):
        inner = ",".join(canonical_value_token(item) for item in value)
        return f"tuple:[{inner}]"
    if isinstance(value, frozenset):
        inner = ",".join(sorted(canonical_value_token(item) for item in value))
        return f"frozenset:[{inner}]"
    return f"{type(value).__name__}:{value!r}"


def _digest(structure) -> str:
    """SHA-256 (truncated) over the JSON encoding of a nested structure."""
    encoded = json.dumps(structure, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:DIGEST_LENGTH]


def network_fingerprint(network: ConstraintNetwork | CompiledNetwork) -> str:
    """Fingerprint of a constraint network's variables/domains/constraints.

    Insertion order of variables, domains, constraints and pairs does
    not affect the result; neither does constraint orientation.

    The canonical form is produced from the compiled kernel's interning
    tables (compilation is cached on the network, so a network that has
    already been solved fingerprints without re-canonicalizing its
    frozenset pair representation); the digest is identical to the one
    computed from :meth:`ConstraintNetwork.canonical_form`.
    """
    variables, constraints = as_compiled(network).canonical_form(
        canonical_value_token
    )
    return _digest(
        [
            [[name, list(domain)] for name, domain in variables],
            [[low, high, [list(p) for p in pairs]] for low, high, pairs in constraints],
        ]
    )


def _expr_form(expr: AffineExpr) -> list:
    """Canonical encoding of an affine expression."""
    return [sorted(list(item) for item in expr.coeffs), expr.const]


def program_fingerprint(program: Program) -> str:
    """Structural fingerprint of a program.

    Array and nest *declaration order* is ignored (it never changes the
    constraint network); everything semantically relevant -- extents,
    dtypes, loop bounds, reference subscripts, access kinds, nest
    weights -- is included.  The program *name* is excluded so renamed
    but identical programs share cache entries.
    """
    arrays = sorted(
        [decl.name, list(decl.extents), decl.element_type]
        for decl in program.arrays
    )
    nests = sorted(
        [
            nest.name,
            [[loop.index, loop.lower, loop.upper] for loop in nest.loops],
            [
                [ref.array, [_expr_form(s) for s in ref.subscripts], ref.kind.name]
                for ref in nest.body
            ],
            nest.weight,
        ]
        for nest in program.nests
    )
    return _digest([arrays, nests])


def options_token(options: BuildOptions) -> str:
    """Canonical token for network-construction options."""
    return (
        f"std={options.include_standard},rev={options.include_reversals},"
        f"skew={list(options.skew_factors)},combine={options.combine}"
    )


def request_fingerprint(program: Program, options: BuildOptions | None = None) -> str:
    """Cache key of one optimization request: program + build options."""
    options = options if options is not None else BuildOptions()
    return _digest([program_fingerprint(program), options_token(options)])


# -- request aliases ------------------------------------------------------

#: Bound of a routing alias map (cluster router, client): the default
#: daemon's result-cache capacity, 4 shards of 1024 entries.
ROUTING_ALIASES = 4 * 1024

#: Payload fields that never change a request's answer.
_UNALIASED_FIELDS = ("id", "trace")


class BoundedMemo(OrderedDict):
    """A tiny LRU mapping (worker network memo, request aliases)."""

    def __init__(self, capacity: int):
        super().__init__()
        self._capacity = capacity

    def get(self, key, default=None):
        value = super().get(key, default)
        if key in self:
            self.move_to_end(key)
        return value

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.move_to_end(key)
        while len(self) > self._capacity:
            self.popitem(last=False)


def payload_digest(payload: Mapping) -> bytes | None:
    """SHA-256 of a raw request payload without its ``id`` and ``trace``.

    The payload is serialized with :mod:`marshal` (format 2, which
    writes no back-references, so equal payloads serialize equally
    whatever else refers to their parts).  Equal bytes decode to equal
    values, types included, so a digest hit is the same request.  Dict
    key order is the client's: a reordered payload digests differently,
    a miss, never a wrong answer.  The digest lives only in this
    process, so the format's version dependence does not matter.  None
    when the payload holds a value marshal cannot write (such a request
    takes the full path).
    """
    body = {
        key: value for key, value in payload.items() if key not in _UNALIASED_FIELDS
    }
    try:
        encoded = marshal.dumps(body, 2)
    except ValueError:
        return None
    return hashlib.sha256(encoded).digest()


def routing_key(
    payload: Mapping, options: BuildOptions | None, aliases: BoundedMemo
) -> str | None:
    """The hash-ring key of a request, read through a request alias.

    A solve/evaluate request routes by its request fingerprint, a
    ``cache_lookup`` by the fingerprint it probes; other kinds have no
    key (None).  A fingerprint is aliased only after its program
    decoded, so a malformed payload raises on every send.

    Raises:
        ProtocolError: for a malformed program payload.
    """
    kind = payload.get("kind")
    if kind == "cache_lookup":
        return payload.get("fingerprint")
    if kind not in ("solve", "evaluate"):
        return None
    digest = payload_digest(payload)
    fingerprint = aliases.get(digest)
    if fingerprint is None:
        program = program_from_wire(payload.get("program"))
        fingerprint = request_fingerprint(program, options)
        if digest is not None:
            aliases[digest] = fingerprint
    return fingerprint
