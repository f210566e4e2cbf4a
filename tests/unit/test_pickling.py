"""Pickle round-trips for plans, prepared queries, specs and kernels.

The parallel fan-out ships compiled :class:`MatchPlan`s and
:class:`PreparedQuery` artifacts to worker processes, so everything a
plan closes over must survive ``pickle`` — including the kernel objects
whose caches are keyed by ``id()`` and therefore must be dropped, not
serialized, at the process boundary.
"""

import pickle

import pytest

from repro.core.algorithms import PRESETS
from repro.core.plan import compile_plan, prepare_query, run_plan
from repro.graph.generators import rmat_graph
from repro.graph.query_gen import extract_query
from repro.obs.metrics import Metrics
from repro.utils.kernels import (
    BitmapKernel,
    BitsetKernel,
    QFilterKernel,
    available_kernels,
    get_kernel,
)

#: Every registered backend plus the unregistered bitmap kernel.
KERNEL_FACTORIES = {
    name: (lambda name=name: get_kernel(name))
    for name in available_kernels()
    if name != "auto"
}
KERNEL_FACTORIES["bitmap"] = BitmapKernel


@pytest.fixture(scope="module")
def workload():
    data = rmat_graph(300, 8.0, 3, seed=11, clustering=0.1)
    query = extract_query(data, 5, seed=2)
    return query, data


class TestSpecAndPlanPickling:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_plan_round_trips(self, name, workload):
        query, data = workload
        plan = compile_plan(name, query, data)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.algorithm.name == plan.algorithm.name
        assert clone.fingerprint == plan.fingerprint
        assert clone.aux_scope == plan.aux_scope
        assert clone.engine_policy == plan.engine_policy

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_unpickled_plan_still_answers(self, name, workload):
        query, data = workload
        plan = compile_plan(name, query, data)
        expected, _ = run_plan(
            plan, query, data, match_limit=200, store_limit=200
        )
        clone = pickle.loads(pickle.dumps(plan))
        result, _ = run_plan(
            clone, query, data, match_limit=200, store_limit=200
        )
        assert result.num_matches == expected.num_matches
        assert result.embeddings == expected.embeddings

    def test_prepared_query_round_trips(self, workload):
        query, data = workload
        plan = compile_plan("GQL-opt", query, data)
        prepared = prepare_query(plan, query, data, Metrics())
        clone = pickle.loads(pickle.dumps(prepared))
        expected, _ = run_plan(
            plan, query, data, prepared=prepared,
            match_limit=200, store_limit=200,
        )
        result, _ = run_plan(
            plan, query, data, prepared=clone,
            match_limit=200, store_limit=200,
        )
        assert result.num_matches == expected.num_matches
        assert result.embeddings == expected.embeddings


class TestKernelPickling:
    def test_bitset_kernel_drops_cache(self, workload):
        query, data = workload
        kernel = BitsetKernel()
        # Populate the id-keyed cache, then round-trip: the clone must
        # start cold — cached ids from the parent process would alias
        # arbitrary objects in the child.
        kernel.intersect(data.neighbors(0), data.neighbors(1))
        assert kernel._cache
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone._cache == {}

    def test_qfilter_kernel_keeps_block_bits(self):
        kernel = QFilterKernel()
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.block_bits == kernel.block_bits

    @pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
    def test_registry_kernels_round_trip(self, name, workload):
        query, data = workload
        kernel = KERNEL_FACTORIES[name]()
        a, b = data.neighbors(0), data.neighbors(1)
        expected = kernel.intersect(a, b)
        clone = pickle.loads(pickle.dumps(kernel))
        # Identity-keyed caches must arrive empty: a shipped id could be
        # recycled by a fresh list in the receiver and alias its entry.
        assert len(getattr(clone, "_cache", ())) == 0
        got = clone.intersect(a, b)
        assert list(got) == list(expected)
        fresh = clone.intersect([100, 200, 300, 400, 500], [100, 200, 300])
        assert list(fresh) == [100, 200, 300]
