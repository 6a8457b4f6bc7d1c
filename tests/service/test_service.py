"""Tests for the multi-tenant compile-and-run service.

Four contracts:

* **Differential** — outputs served over HTTP are bit-identical to
  direct :class:`repro.api.Session` runs of the same chunks, governed
  or static, closures or VM, however warm the shared tables are.
* **Isolation** — tenants never see each other's program caches; LRU
  eviction closes the evicted program's session and frees its tables.
* **Robustness** — backpressure (429 + Retry-After), request timeouts
  (504), graceful drain (503 for new work, in-flight completes),
  malformed requests (400), unknown routes/programs (404/405).
* **Observability** — request counters/histograms and tenant program
  gauges land in the shared registry and render as OpenMetrics.
"""

import asyncio
import json
import time

import pytest

import repro
from repro import api
from repro.errors import ConfigError
from repro.obs.metrics import parse_openmetrics
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    TenantPolicy,
    compile_options_from_wire,
    governor_from_wire,
    pipeline_config_from_wire,
)
from repro.runtime.governor import GovernorPolicy
from repro.workloads import get_workload

# the api-test kernel: transforms profitably on a high-locality stream
KERNEL = """
int tab[8] = {5, 3, 8, 1, 9, 2, 7, 4};
static int kernel(int v) {
    int r = 0;
    int i;
    for (i = 0; i < 10; i++)
        r += tab[i & 7] * ((v + i) & 63) + v % (i + 2);
    return r;
}
int main(void) {
    int acc = 0;
    while (__input_avail())
        acc += kernel(__input_int());
    __output_int(acc);
    return acc;
}
"""

KERNEL_INPUTS = [3, 9, 3, 17, 9, 3] * 40

# a busy loop taking visible wall-clock time per run: the timeout and
# backpressure tests need one request to still be in flight when the
# next arrives
SLOW = """
int main(void) {
    int acc = 0;
    int i;
    int j;
    for (i = 0; i < 900; i++)
        for (j = 0; j < 900; j++)
            acc += (i * 7 + j) & 1023;
    __output_int(acc);
    return acc;
}
"""


def _request(port, method, path, payload=None):
    async def go():
        async with ServiceClient("127.0.0.1", port) as client:
            return await client.request(method, path, payload)

    return asyncio.run(go())


def _without_endpoint(snapshot, endpoint):
    for family in snapshot["families"].values():
        family["samples"] = [
            sample
            for sample in family["samples"]
            if sample["labels"].get("endpoint") != endpoint
        ]
    return snapshot


@pytest.fixture(scope="module")
def server():
    config = ServiceConfig(
        request_timeout=60.0,
        tenants={"governed-tenant": TenantPolicy(governor=GovernorPolicy(window=128))},
    )
    with ServiceThread(config) as thread:
        yield thread


class TestEndpoints:
    def test_healthz(self, server):
        reply = _request(server.port, "GET", "/healthz")
        assert reply.status == 200
        assert reply.payload["status"] == "ok"

    def test_compile_is_content_addressed_and_cached(self, server):
        first = _request(
            server.port, "POST", "/v1/compile",
            {"tenant": "alpha", "source": KERNEL},
        )
        again = _request(
            server.port, "POST", "/v1/compile",
            {"tenant": "alpha", "source": KERNEL},
        )
        assert first.status == again.status == 200
        assert first.payload["program"] == again.payload["program"]
        assert first.payload["cached"] is False or again.payload["cached"] is True
        # semantic knobs change the id; a trailing space changes the id
        governed = _request(
            server.port, "POST", "/v1/compile",
            {"tenant": "alpha", "source": KERNEL, "options": {"governed": True}},
        )
        assert governed.payload["program"] != first.payload["program"]

    def test_run_by_program_id_shares_warmed_tables(self, server):
        compiled = _request(
            server.port, "POST", "/v1/compile",
            {"tenant": "warm", "source": KERNEL},
        )
        key = compiled.payload["program"]
        first = _request(
            server.port, "POST", "/v1/run",
            {"tenant": "warm", "program": key, "inputs": KERNEL_INPUTS},
        )
        second = _request(
            server.port, "POST", "/v1/run",
            {"tenant": "warm", "program": key, "inputs": KERNEL_INPUTS},
        )
        assert first.status == second.status == 200
        # outputs identical; hit counts strictly grow across requests
        # because both runs share one session's tables
        assert second.payload["value"] == first.payload["value"]
        assert second.payload["output_checksum"] == first.payload["output_checksum"]
        assert second.payload["tables"]["hits"] > first.payload["tables"]["hits"]

    def test_inline_source_run(self, server):
        reply = _request(
            server.port, "POST", "/v1/run",
            {"tenant": "inline", "source": KERNEL, "inputs": KERNEL_INPUTS},
        )
        assert reply.status == 200
        assert reply.payload["cached"] is False

    def test_stats_endpoint(self, server):
        _request(
            server.port, "POST", "/v1/run",
            {"tenant": "stats-tenant", "source": KERNEL, "inputs": KERNEL_INPUTS},
        )
        everyone = _request(server.port, "GET", "/v1/stats")
        assert everyone.status == 200
        names = {t["tenant"] for t in everyone.payload["tenants"]}
        assert "stats-tenant" in names
        one = _request(server.port, "GET", "/v1/stats?tenant=stats-tenant")
        assert one.payload["runs"] >= 1
        assert one.payload["programs"][0]["table_probes"] > 0

    def test_metrics_endpoint_exposes_service_families(self, server):
        _request(server.port, "GET", "/healthz")
        _request(
            server.port, "POST", "/v1/run",
            {"tenant": "metrics-tenant", "source": KERNEL, "inputs": KERNEL_INPUTS},
        )
        reply = _request(server.port, "GET", "/metrics")
        assert reply.status == 200
        assert "openmetrics" in reply.headers["content-type"]
        assert "repro_service_requests" in reply.payload
        assert "repro_service_request_seconds" in reply.payload
        assert "repro_reuse_probes" in reply.payload  # published by the run
        assert reply.payload.endswith("# EOF\n")
        # the body is the registry, exactly; only the /metrics request's
        # own accounting lands after the body was rendered
        assert _without_endpoint(
            parse_openmetrics(reply.payload), "/metrics"
        ) == _without_endpoint(server.registry.snapshot(), "/metrics")

    def test_governed_tenant_policy_applies(self, server):
        reply = _request(
            server.port, "POST", "/v1/run",
            {
                "tenant": "governed-tenant",
                "source": KERNEL,
                "options": {"governed": True},
                "inputs": KERNEL_INPUTS,
            },
        )
        assert reply.status == 200
        assert reply.payload["governor"]  # at least one governed segment


class TestErrors:
    def test_unknown_route_404(self, server):
        assert _request(server.port, "GET", "/nope").status == 404

    def test_wrong_method_405(self, server):
        assert _request(server.port, "GET", "/v1/run").status == 405
        assert _request(server.port, "POST", "/healthz").status == 405

    def test_unknown_program_404(self, server):
        reply = _request(
            server.port, "POST", "/v1/run",
            {"tenant": "alpha", "program": "feed" * 16, "inputs": []},
        )
        assert reply.status == 404
        assert "unknown program" in reply.payload["error"]

    def test_bad_option_400(self, server):
        reply = _request(
            server.port, "POST", "/v1/compile",
            {"tenant": "alpha", "source": KERNEL, "options": {"optimize": "O9"}},
        )
        assert reply.status == 400
        assert "unexpected key" in reply.payload["error"]

    def test_missing_tenant_400(self, server):
        reply = _request(server.port, "POST", "/v1/run", {"source": KERNEL})
        assert reply.status == 400

    def test_bad_inputs_400(self, server):
        reply = _request(
            server.port, "POST", "/v1/run",
            {"tenant": "alpha", "source": KERNEL, "inputs": ["NaN-ish"]},
        )
        assert reply.status == 400

    def test_parse_error_400(self, server):
        reply = _request(
            server.port, "POST", "/v1/compile",
            {"tenant": "alpha", "source": "int main( {"},
        )
        assert reply.status == 400

    def test_source_and_program_400(self, server):
        reply = _request(
            server.port, "POST", "/v1/run",
            {"tenant": "alpha", "source": KERNEL, "program": "x", "inputs": []},
        )
        assert reply.status == 400

    def test_malformed_body_400(self, server):
        async def go():
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            body = b"{not json"
            writer.write(
                b"POST /v1/run HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            await writer.drain()
            status = (await reader.readuntil(b"\r\n")).split()[1]
            writer.close()
            return int(status)

        assert asyncio.run(go()) == 400

    @staticmethod
    def _raw_exchange(port, head: bytes):
        """Send raw bytes, return (status, parsed JSON error body)."""

        async def go():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(head)
            await writer.drain()
            status = int((await reader.readuntil(b"\r\n")).split()[1])
            headers = {}
            while True:
                line = (await reader.readuntil(b"\r\n"))[:-2]
                if not line:
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            body = await reader.readexactly(int(headers["content-length"]))
            writer.close()
            return status, json.loads(body)

        return asyncio.run(go())

    def test_malformed_content_length_400_json(self, server):
        status, payload = self._raw_exchange(
            server.port,
            b"POST /v1/run HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: banana\r\n\r\n",
        )
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_negative_content_length_400_json(self, server):
        status, payload = self._raw_exchange(
            server.port,
            b"POST /v1/run HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: -5\r\n\r\n",
        )
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_oversized_header_block_400_json(self, server):
        # under the per-line and per-count limits, over the 32 KiB total
        filler = b"".join(
            b"X-Pad-%02d: %s\r\n" % (i, b"v" * 4000) for i in range(10)
        )
        status, payload = self._raw_exchange(
            server.port,
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n" + filler + b"\r\n",
        )
        assert status == 400
        assert payload["error"] == "header block too large"


class TestDifferential:
    """Served outputs must be bit-identical to direct facade runs."""

    @pytest.mark.parametrize("governed", [False, True], ids=["static", "governed"])
    @pytest.mark.parametrize("backend", ["closures", "vm"])
    @pytest.mark.parametrize("name", ["G721_encode", "GNUGO_drift"])
    def test_served_matches_direct_session(self, server, name, backend, governed):
        workload = get_workload(name)
        granule = 4 if name.startswith("GNUGO") else 1
        chunk = 64 - 64 % granule
        stream = workload.default_inputs()[: 3 * chunk]
        chunks = [stream[i : i + chunk] for i in range(0, len(stream), chunk)]
        options = {"governed": governed, "backend": backend}
        tenant = f"diff-{name}-{backend}-{governed}"

        served = []
        for inputs in chunks:
            reply = _request(
                server.port, "POST", "/v1/run",
                {
                    "tenant": tenant,
                    "source": workload.source,
                    "options": options,
                    "inputs": inputs,
                },
            )
            assert reply.status == 200
            served.append((reply.payload["value"], reply.payload["output_checksum"]))

        with api.Session(
            api.CompileOptions(governed=governed, backend=backend)
        ) as session:
            direct = [
                (run.value, run.output_checksum)
                for run in (session.run(workload.source, inputs) for inputs in chunks)
            ]
        assert served == direct


class TestIsolationAndEviction:
    def test_tenants_do_not_share_program_caches(self):
        with ServiceThread(ServiceConfig()) as thread:
            compiled = _request(
                thread.port, "POST", "/v1/compile",
                {"tenant": "a", "source": KERNEL},
            )
            key = compiled.payload["program"]
            # tenant b never compiled it: running by id is a 404 even
            # though the content key would match
            reply = _request(
                thread.port, "POST", "/v1/run",
                {"tenant": "b", "program": key, "inputs": []},
            )
            assert reply.status == 404

    def test_lru_eviction_closes_oldest_program(self):
        config = ServiceConfig(
            default_policy=TenantPolicy(max_programs=1),
        )
        with ServiceThread(config) as thread:
            first = _request(
                thread.port, "POST", "/v1/compile",
                {"tenant": "t", "source": KERNEL},
            )
            other = KERNEL + "\n"
            second = _request(
                thread.port, "POST", "/v1/compile",
                {"tenant": "t", "source": other},
            )
            assert second.status == 200
            gone = _request(
                thread.port, "POST", "/v1/run",
                {"tenant": "t", "program": first.payload["program"], "inputs": []},
            )
            assert gone.status == 404
            stats = _request(thread.port, "GET", "/v1/stats?tenant=t")
            assert stats.payload["evictions"] == 1
            assert len(stats.payload["programs"]) == 1


class TestRobustness:
    def test_request_timeout_504(self):
        # well under SLOW's run time on either backend (about 0.2 s on the
        # vm backend of a fast host), so the request always times out
        config = ServiceConfig(request_timeout=0.05)
        with ServiceThread(config) as thread:
            reply = _request(
                thread.port, "POST", "/v1/run",
                {
                    "tenant": "slow",
                    "source": SLOW,
                    "options": {"reuse": False},
                    "inputs": [],
                },
            )
            assert reply.status == 504
            assert "exceeded" in reply.payload["error"]

    def test_backpressure_429_with_retry_after(self):
        config = ServiceConfig(max_pending=1, workers=1, request_timeout=60.0)
        with ServiceThread(config) as thread:

            async def go():
                slow_client = ServiceClient("127.0.0.1", thread.port)
                await slow_client.connect()
                slow_task = asyncio.create_task(
                    slow_client.run(
                        "p", source=SLOW, options={"reuse": False}, inputs=[]
                    )
                )
                # wait until the slow run is admitted
                async with ServiceClient("127.0.0.1", thread.port) as probe:
                    for _ in range(200):
                        health = await probe.healthz()
                        if health.payload["pending"] >= 1:
                            break
                        await asyncio.sleep(0.01)
                    rejected = await probe.run(
                        "p", source=KERNEL, inputs=KERNEL_INPUTS
                    )
                slow_reply = await slow_task
                await slow_client.close()
                return rejected, slow_reply

            rejected, slow_reply = asyncio.run(go())
            assert rejected.status == 429
            assert float(rejected.headers["retry-after"]) > 0
            assert slow_reply.status == 200  # in-flight request unharmed

    def test_drain_rejects_new_work_and_finishes_inflight(self):
        config = ServiceConfig(max_pending=8, request_timeout=60.0, drain_grace=60.0)
        with ServiceThread(config) as thread:

            async def go():
                client = ServiceClient("127.0.0.1", thread.port)
                await client.connect()
                inflight = asyncio.create_task(
                    client.run("d", source=SLOW, options={"reuse": False}, inputs=[])
                )
                async with ServiceClient("127.0.0.1", thread.port) as probe:
                    for _ in range(200):
                        health = await probe.healthz()
                        if health.payload["pending"] >= 1:
                            break
                        await asyncio.sleep(0.01)
                drained = await asyncio.get_running_loop().run_in_executor(
                    None, thread.drain
                )
                async with ServiceClient("127.0.0.1", thread.port) as probe:
                    rejected = await probe.run("d", source=KERNEL, inputs=[1])
                    health = await probe.healthz()
                reply = await inflight
                await client.close()
                return drained, rejected, health, reply

            drained, rejected, health, reply = asyncio.run(go())
            assert drained is True
            assert reply.status == 200  # the in-flight run completed
            assert rejected.status == 503
            assert health.payload["status"] == "draining"


class TestWireCodec:
    def test_options_round_trip(self):
        options = compile_options_from_wire(
            {
                "opt": "O3",
                "governed": True,
                "backend": "vm",
                "config": {"min_executions": 8, "governor": {"window": 64}},
            }
        )
        assert options.opt == "O3"
        assert options.governed is True
        assert options.backend == "vm"
        assert options.config.min_executions == 8
        assert options.config.governor.window == 64

    def test_tenant_default_governor_applies_only_without_explicit(self):
        policy = TenantPolicy(governor=GovernorPolicy(window=99))
        from_policy = compile_options_from_wire({"governed": True}, policy)
        assert from_policy.config.governor.window == 99
        explicit = compile_options_from_wire(
            {"governed": True, "config": {"governor": {"window": 7}}}, policy
        )
        assert explicit.config.governor.window == 7

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unexpected key"):
            compile_options_from_wire({"opt": "O0", "optimize": True})
        with pytest.raises(ConfigError, match="unexpected key"):
            pipeline_config_from_wire({"min_execution": 8})
        with pytest.raises(ConfigError, match="unexpected key"):
            governor_from_wire({"windows": 1})

    def test_observer_knobs_not_on_the_wire(self):
        with pytest.raises(ConfigError, match="unexpected key"):
            compile_options_from_wire({"trace": True})
        with pytest.raises(ConfigError, match="unexpected key"):
            compile_options_from_wire({"profile": True})

    def test_service_config_validates(self):
        with pytest.raises(ConfigError):
            ServiceConfig(max_pending=0)
        with pytest.raises(ConfigError):
            ServiceConfig(request_timeout=0)
        with pytest.raises(ConfigError):
            TenantPolicy(max_programs=0)
        with pytest.raises(ConfigError):
            ServiceConfig(tenants={"x": object()})
