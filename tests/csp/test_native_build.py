"""Native-kernel build cache and compilerless degradation.

The native tier must never make a host worse: a machine without a C
compiler (and without a pre-built cache) keeps solving on the bitset
engine.  The contract under test:

* ``engine="auto"`` and the ``REPRO_CSP_ENGINE=native`` env override
  degrade to ``bitset`` (the override logs **one** warning per
  process -- the warn-once seam -- while every degraded call is still
  counted through ``repro_engine_degradations_total``);
* an *explicit* ``engine="native"`` raises instead of degrading (an
  impossible explicit request is a bug at the call site, not a
  fleet-rollout condition);
* a corrupt or truncated cached ``.so`` is deleted and recompiled
  once, and the rebuilt library is served from cache thereafter.

Compile-needing tests are skipped on compilerless hosts; the
degradation tests run everywhere (they fake the compilerless state by
pointing the loader at an empty cache with no compiler on PATH).
"""

import ctypes
import logging

import pytest

from repro.csp import vectorized
from repro.csp.compiled import compile_network
from repro.csp.native import build as native_build
from repro.csp.random_networks import random_network
from repro.csp.vectorized import ENGINE_ENV, resolve_engine
from repro.obs import metrics


@pytest.fixture
def kernel():
    return compile_network(random_network(6, 4, 0.5, 0.3, seed=3))


@pytest.fixture(autouse=True)
def _fresh_native_state(monkeypatch):
    """Isolate each test's loader memo, warn-once set and env."""
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    native_build.reset_cache()
    vectorized._DEGRADATIONS_WARNED.clear()
    yield
    native_build.reset_cache()
    vectorized._DEGRADATIONS_WARNED.clear()
    metrics.set_enabled(False)


@pytest.fixture
def compilerless(monkeypatch, tmp_path):
    """No compiler, no cached build: the native tier cannot come up."""
    monkeypatch.setenv(native_build.CACHE_DIR_ENV, str(tmp_path / "cache"))
    monkeypatch.setenv("PATH", str(tmp_path / "empty-bin"))
    monkeypatch.delenv(native_build.CC_ENV, raising=False)


class TestCompilerlessDegradation:
    def test_usable_is_false_and_memoized(self, compilerless):
        assert not native_build.usable()
        # The failed outcome is memoized: a second probe is cheap and
        # still False (no half-initialized state).
        assert not native_build.usable()

    def test_auto_skips_the_native_rung(self, compilerless, kernel):
        assert resolve_engine("auto", kernel) == "bitset"

    def test_explicit_native_raises(self, compilerless, kernel):
        with pytest.raises(RuntimeError, match="native"):
            resolve_engine("native", kernel)

    def test_env_override_degrades_with_one_warning(
        self, compilerless, kernel, monkeypatch, caplog
    ):
        monkeypatch.setenv(ENGINE_ENV, "native")
        registry = metrics.MetricsRegistry()
        previous = metrics.set_registry(registry)
        metrics.set_enabled(True)
        try:
            with caplog.at_level(logging.WARNING, logger="repro.csp.vectorized"):
                for _ in range(4):
                    assert resolve_engine("auto", kernel) == "bitset"
        finally:
            metrics.set_enabled(False)
            metrics.set_registry(previous)
        warnings = [
            record
            for record in caplog.records
            if "native" in record.getMessage()
        ]
        assert len(warnings) == 1, "the degradation must be logged exactly once"
        rows = [
            row
            for row in registry.snapshot()["metrics"]
            if row["name"] == "repro_engine_degradations_total"
            and dict(row["labels"]) == {"reason": "native-unusable"}
        ]
        assert len(rows) == 1
        assert rows[0]["value"] == 4

    def test_solvers_still_run(self, compilerless, kernel):
        from repro.csp.enhanced import EnhancedSolver

        result = EnhancedSolver(seed=1).solve(kernel)
        assert result.complete


@pytest.mark.skipif(
    not native_build.compiler_available(), reason="needs a C compiler"
)
class TestBuildCache:
    def test_corrupt_cached_library_is_recompiled(self, monkeypatch, tmp_path):
        monkeypatch.setenv(native_build.CACHE_DIR_ENV, str(tmp_path))
        target = native_build.library_path()
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(b"definitely not ELF")
        before = native_build.build_stats()
        lib = native_build.load_library()
        assert isinstance(lib, ctypes.CDLL)
        after = native_build.build_stats()
        assert after["cache_misses"] == before["cache_misses"] + 1
        assert after["compile_seconds"] > before["compile_seconds"]
        # The corrupt file was replaced by a working build...
        assert target.exists()
        # ...which a fresh loader serves as a cache hit, no recompile.
        native_build.reset_cache()
        native_build.load_library()
        final = native_build.build_stats()
        assert final["cache_hits"] == after["cache_hits"] + 1
        assert final["compile_seconds"] == after["compile_seconds"]

    def test_library_path_is_source_keyed(self):
        path = native_build.library_path()
        assert path.name.startswith("repro_kernel-")
        assert path.suffix == ".so"
