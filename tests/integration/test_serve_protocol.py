"""End-to-end serving over TCP: asyncio server, JSON-lines protocol.

One real socketed round trip per behavior: served matches equal a direct
in-process session's, admission failures come back as typed error codes
(not dropped connections), concurrent clients interleave safely, and the
event loop never blocks on an enumeration (a slow request on one
connection must not stall a ping on another).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.session import MatchSession
from repro.graph import erdos_renyi_graph, extract_query
from repro.serve import MatchServer, MatchService
from repro.serve.protocol import graph_to_payload


@pytest.fixture(scope="module")
def data():
    return erdos_renyi_graph(120, 6.0, 4, seed=55)


@pytest.fixture(scope="module")
def query(data):
    return extract_query(data, 5, seed=9)


class Client:
    """A minimal JSON-lines client for the test loop."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def rpc(self, payload):
        self.writer.write((json.dumps(payload) + "\n").encode())
        await self.writer.drain()
        line = await self.reader.readline()
        assert line, "server closed the connection"
        return json.loads(line)

    async def close(self):
        self.writer.close()


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=120))


@pytest.fixture
def service(data):
    service = MatchService(workers=2)
    service.add_graph("g", data)
    yield service
    service.close()


async def with_server(service, scenario):
    server = MatchServer(service, port=0)
    await server.start()
    try:
        return await scenario(server)
    finally:
        await server.stop()


class TestServeProtocol:
    def test_match_over_the_wire_equals_direct_session(
        self, service, data, query
    ):
        direct = MatchSession(data).match(query)

        async def scenario(server):
            client = await Client.connect(server.port)
            response = await client.rpc(
                {
                    "op": "match",
                    "id": 1,
                    "graph": "g",
                    "query": graph_to_payload(query),
                    "include_embeddings": True,
                }
            )
            await client.close()
            return response

        response = run(with_server(service, scenario))
        assert response["ok"] and response["status"] == "ok"
        assert response["id"] == 1
        assert response["num_matches"] == direct.num_matches
        assert [tuple(e) for e in response["embeddings"]] == direct.embeddings

    def test_ping_graphs_stats_ops(self, service, query):
        async def scenario(server):
            client = await Client.connect(server.port)
            out = {
                "ping": await client.rpc({"op": "ping"}),
                "graphs": await client.rpc({"op": "graphs"}),
            }
            await client.rpc(
                {"op": "match", "graph": "g", "query": graph_to_payload(query)}
            )
            out["stats"] = await client.rpc({"op": "stats"})
            await client.close()
            return out

        out = run(with_server(service, scenario))
        assert out["ping"] == {"ok": True, "pong": True}
        assert out["graphs"]["graphs"] == ["g"]
        assert out["stats"]["stats"]["counters"]["serve.completed"] >= 1

    def test_add_graph_then_match_it(self, service, data):
        tiny_query = {"labels": [0, 1, 0], "edges": [[0, 1], [1, 2]]}
        tiny_data = {
            "labels": [0, 1, 0, 1],
            "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
        }

        async def scenario(server):
            client = await Client.connect(server.port)
            added = await client.rpc(
                {"op": "add_graph", "name": "tiny", "graph": tiny_data}
            )
            matched = await client.rpc(
                {"op": "match", "graph": "tiny", "query": tiny_query}
            )
            await client.close()
            return added, matched

        added, matched = run(with_server(service, scenario))
        assert added["ok"] and added["num_vertices"] == 4
        assert matched["ok"] and matched["num_matches"] == 4

    def test_mutate_over_the_wire_advances_served_epochs(self, service):
        tiny_query = {"labels": [0, 1, 0], "edges": [[0, 1], [1, 2]]}
        tiny_data = {
            "labels": [0, 1, 0, 1],
            "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
        }

        async def scenario(server):
            client = await Client.connect(server.port)
            await client.rpc(
                {
                    "op": "add_graph",
                    "name": "live",
                    "graph": tiny_data,
                    "dynamic": True,
                }
            )
            before = await client.rpc(
                {"op": "match", "graph": "live", "query": tiny_query}
            )
            mutated = await client.rpc(
                {
                    "op": "mutate",
                    "graph": "live",
                    "mutations": [["add_vertex", 0], ["add_edge", 1, 4]],
                }
            )
            after = await client.rpc(
                {"op": "match", "graph": "live", "query": tiny_query}
            )
            await client.close()
            return before, mutated, after

        before, mutated, after = run(with_server(service, scenario))
        assert before["ok"] and before["epoch"] == 0
        assert mutated == {
            "ok": True,
            "graph": "live",
            "epoch": 1,
            "added_edges": 1,
            "removed_edges": 0,
            "added_vertices": 1,
        }
        assert after["ok"] and after["epoch"] == 1
        # The planted vertex 4 (label 0) adds paths through vertex 1.
        assert after["num_matches"] > before["num_matches"]

    def test_error_codes_keep_the_connection_alive(self, service, query):
        async def scenario(server):
            client = await Client.connect(server.port)
            unknown = await client.rpc(
                {"op": "match", "graph": "nope", "query": graph_to_payload(query)}
            )
            malformed = await client.rpc({"op": "match", "query": {"bad": 1}})
            spent = await client.rpc(
                {
                    "op": "match",
                    "graph": "g",
                    "query": graph_to_payload(query),
                    "budget_ms": 0,
                }
            )
            bad_kernel = await client.rpc(
                {
                    "op": "match",
                    "graph": "g",
                    "query": graph_to_payload(query),
                    "kernel": 42,
                }
            )
            # The connection still serves after four failures.
            alive = await client.rpc({"op": "ping"})
            await client.close()
            return unknown, malformed, spent, bad_kernel, alive

        unknown, malformed, spent, bad_kernel, alive = run(
            with_server(service, scenario)
        )
        assert unknown == {
            "ok": False,
            "error": "no resident graph named 'nope'",
            "code": "UnknownGraphError",
        }
        assert malformed["code"] == "GraphFormatError"
        assert spent["code"] == "DeadlineExceededError"
        assert bad_kernel["code"] == "ConfigurationError"
        assert alive["ok"]

    def test_concurrent_connections_interleave(self, service, data, query):
        direct = MatchSession(data).match(query)

        async def scenario(server):
            clients = await asyncio.gather(
                *(Client.connect(server.port) for _ in range(4))
            )
            responses = await asyncio.gather(
                *(
                    c.rpc(
                        {
                            "op": "match",
                            "id": i,
                            "graph": "g",
                            "tenant": f"t{i}",
                            "query": graph_to_payload(query),
                        }
                    )
                    for i, c in enumerate(clients)
                )
            )
            for c in clients:
                await c.close()
            return responses

        responses = run(with_server(service, scenario))
        assert sorted(r["id"] for r in responses) == [0, 1, 2, 3]
        for response in responses:
            assert response["ok"]
            assert response["num_matches"] == direct.num_matches

    def test_slow_match_does_not_block_pings(self, service, data, query):
        # The slow request fans out through the thread pool; the ping on a
        # second connection must answer while it is still in flight.
        async def scenario(server):
            slow_client = await Client.connect(server.port)
            ping_client = await Client.connect(server.port)
            slow_task = asyncio.ensure_future(
                slow_client.rpc(
                    {
                        "op": "match",
                        "graph": "g",
                        "query": graph_to_payload(query),
                        "match_limit": None,
                    }
                )
            )
            pong = await asyncio.wait_for(
                ping_client.rpc({"op": "ping"}), timeout=30
            )
            slow = await slow_task
            await slow_client.close()
            await ping_client.close()
            return pong, slow

        pong, slow = run(with_server(service, scenario))
        assert pong["ok"]
        assert slow["ok"]
