"""Loopback live-runtime workloads: ``live_frames`` and ``live_discovery``.

Both run real asyncio TCP servers on 127.0.0.1 inside this process, with
two concurrent closed-loop clients (= nproc), so process-CPU time is the
cost of the whole loopback cluster. ``live_frames`` sends the smallest
messages against a tiny registry: newline-JSON codec, asyncio and one
``AdmissionMachine`` step per message carry it. ``live_discovery`` asks
a bare ``ManagerServer`` and a ``ControlPlaneCluster`` router the same
questions: the selection logic is ``cp_discovery``'s, but the registry
is small, so connection set-up, codec and the router's sequential
fan-out carry it.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import zlib
from time import perf_counter
from typing import Any, Awaitable, Dict, List, Optional, Sequence, Tuple

from repro.controlplane.live_driver import ControlPlaneCluster
from repro.core.messages import DiscoveryQuery, from_wire, to_wire
from repro.core.policies.global_policies import GeoProximityFilter, GlobalSelectionPolicy
from repro.geo.region import MSP_CENTER, MetroArea
from repro.nodes.hardware import VOLUNTEER_PROFILES
from repro.obs.tracer import ListSink, Tracer
from repro.protocol.admission import AdmissionMachine
from repro.protocol.global_select import GlobalSelectionMachine
from repro.protocol.selection import SelectionMachine
from repro.runtime import protocol
from repro.runtime.launcher import LocalCluster
from repro.runtime.manager_server import ManagerServer

from harness import Run, Slice, Timed, Workload, percentile
from wl_discovery import synthetic_status

CLIENTS = 2
Address = Tuple[str, int]


class LiveWorkload(Workload):
    """Owns the event loop; checks nothing is left behind after a run."""

    def __init__(self, seed, smoke, recorder) -> None:
        super().__init__(seed, smoke, recorder)
        self.loop = asyncio.new_event_loop()
        self.loop.set_exception_handler(self._on_loop_error)
        self._served: List[Address] = []

    def _on_loop_error(self, loop, context: Dict[str, Any]) -> None:
        self.problems.append(f"asyncio: {context.get('message')}: {context.get('exception')!r}")

    def run(self, coro: Awaitable[Any]) -> Any:
        return self.loop.run_until_complete(coro)

    def gather(self, *coros: Awaitable[Any]) -> List[Any]:
        async def together() -> List[Any]:
            return await asyncio.gather(*coros)

        return self.run(together())

    async def _still_listening(self) -> List[Address]:
        open_ = []
        for host, port in self._served:
            try:
                _, writer = await asyncio.open_connection(host, port)
            except OSError:
                continue
            writer.close()
            await writer.wait_closed()
            open_.append((host, port))
        return open_

    def close(self) -> None:
        """After the servers stopped: nothing may listen, nothing may be
        left running; fire-and-forget timers are cancelled quietly."""
        leaked = self.run(self._still_listening())
        if leaked:
            self.problems.append(f"servers still listening after stop: {leaked}")
        self._served.clear()
        pending = asyncio.all_tasks(self.loop)
        for task in pending:
            task.cancel()
        if pending:
            self.run(asyncio.gather(*pending, return_exceptions=True))
        self.run(self.loop.shutdown_asyncgens())
        self.loop.close()


def codec_us(payloads: Sequence[Dict[str, Any]], messages: Sequence[Any],
             repeat: int = 300) -> Dict[str, float]:
    """Direct-drive the wire codec over payloads captured from a workload."""
    lines = [protocol.encode_frame("reply", p) for p in payloads]
    wires = [to_wire(m) for m in messages]

    def per_call(fn, items) -> float:
        start = perf_counter()
        for _ in range(repeat):
            for item in items:
                fn(item)
        return (perf_counter() - start) / (repeat * len(items)) * 1e6

    return {
        "runtime.codec.encode_us": per_call(lambda p: protocol.encode_frame("reply", p), payloads),
        "runtime.codec.decode_us": per_call(protocol.decode_frame, lines),
        "runtime.codec.to_wire_us": per_call(to_wire, messages),
        "runtime.codec.from_wire_us": per_call(from_wire, wires),
    }


def median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
class LiveFrames(LiveWorkload):
    name = "live_frames"
    windows_per_round = 6

    def __init__(self, seed, smoke, recorder) -> None:
        super().__init__(seed, smoke, recorder)
        self.frames_per_window = 25 if smoke else 125
        self.sizes = {
            "edges": 4, "clients": CLIENTS, "time_scale": 0.001,
            "frames_per_client_per_round": self.frames_per_window * self.windows_per_round,
            "select_every_frames": 2 * self.frames_per_window,
            "loop": f"closed: {CLIENTS} clients, next frame after the previous reply",
        }
        self.cluster: Optional[LocalCluster] = None
        self.traced: Optional[LocalCluster] = None
        self._sink = ListSink()
        self._window = 0
        self.rtt_ms: List[float] = []       # plain rounds, as offload_frame() returns
        self.select_ms: List[float] = []
        self.phase_ms: Dict[str, List[float]] = {"rtt": [], "queue": [], "process": []}

    def _cluster(self, tracer: Optional[Tracer]) -> LocalCluster:
        cluster = LocalCluster(VOLUNTEER_PROFILES[:4], n_clients=CLIENTS,
                               seed=self.seed, time_scale=0.001, tracer=tracer)
        self.run(cluster.start())
        self._served.append((cluster.manager.host, cluster.manager.port))
        self._served.extend((e.host, e.port) for e in cluster.edges)
        return cluster

    def setup(self, variant: str = "plain") -> None:
        self.cluster = self._cluster(None)

    def teardown(self) -> None:
        for cluster in (self.cluster, self.traced):
            if cluster is not None:
                self.run(cluster.stop())
        self.cluster = self.traced = None

    def begin_round(self, variant: str) -> None:
        self._window = 0
        rec = self.recorder
        if rec is None:
            return
        rec.unwrap_all()
        if variant == "spans":
            if self.traced is None:
                # PhaseSpans are only emitted by a capture-enabled tracer
                self.traced = self._cluster(Tracer(enabled=True, sink=self._sink))
            rec.round += 1
            rec.wrap(SelectionMachine, "handle", "protocol.selection.handle")
            rec.wrap(AdmissionMachine, "handle", "protocol.admission.handle")
            rec.wrap(GlobalSelectionMachine, "handle", "protocol.global_select.handle")

    async def _client(self, client, select: bool, rtt: List[Optional[float]],
                      selects: List[float]) -> None:
        if select or client.current_edge is None:
            start = perf_counter()
            await client.select_and_join()
            selects.append((perf_counter() - start) * 1e3)
        for _ in range(self.frames_per_window):
            rtt.append(await client.offload_frame())

    def window(self, variant: str) -> Slice:
        cluster = self.traced if variant == "spans" else self.cluster
        select = self._window % 2 == 0
        self._window += 1
        rtt: List[Optional[float]] = []
        selects: List[float] = []
        with Timed() as t:
            self.gather(*(self._client(c, select, rtt, selects) for c in cluster.clients))
        done = [x for x in rtt if x is not None]
        if variant == "plain":
            self.rtt_ms.extend(done)
            self.select_ms.extend(selects)
        return Slice(len(rtt), len(rtt) - len(done), t.cpu_s, t.wall_s)

    def end_round(self, variant: str) -> None:
        if variant == "spans":
            for event in self._sink.events:
                if event.type == "phase_span":
                    self.phase_ms[event.phase].append(event.duration_ms)
            self._sink.events.clear()
        return None

    async def _bare_op_p50_us(self, op: str, repeat: int) -> float:
        client = self.cluster.clients[0]
        connection = client.connections[client.current_edge]
        samples = []
        for _ in range(repeat):
            start = perf_counter()
            await connection.request(op)
            samples.append((perf_counter() - start) * 1e6)
        return statistics.median(samples)

    async def _captured(self):
        """One heartbeat, one discover reply, one frame reply, as sent."""
        cluster = self.cluster
        client, edge = cluster.clients[0], cluster.edges[0]
        status = edge.status()
        query = DiscoveryQuery(client.user_id, client.point.lat, client.point.lon, 3)
        discover = await protocol.request(cluster.manager.host, cluster.manager.port,
                                          "discover", {"query": to_wire(query)})
        frame = await client.connections[client.current_edge].request(
            "frame", {"user_id": client.user_id})
        heartbeat = {"status": to_wire(status), "host": edge.host, "port": edge.port}
        return ([heartbeat, discover, frame],
                [status, query, from_wire(discover["candidates"])])

    def layer_metrics(self, run: Run) -> Dict[str, float]:
        rec = self.recorder
        repeat = 50 if self.smoke else 400
        payloads, messages = self.run(self._captured())
        med = median_or_zero
        out = {
            "runtime.wire.rtt_probe_p50_us": self.run(self._bare_op_p50_us("rtt_probe", repeat)),
            "runtime.edge.process_probe_p50_us":
                self.run(self._bare_op_p50_us("process_probe", repeat)),
            "runtime.frame.rtt_ms": med(self.phase_ms["rtt"]),
            "runtime.frame.queue_ms": med(self.phase_ms["queue"]),
            "runtime.frame.process_ms": med(self.phase_ms["process"]),
            "frame_rtt_p50_ms": med(self.rtt_ms),
            "frame_rtt_p99_ms": percentile(self.rtt_ms, 0.99) if self.rtt_ms else 0.0,
            "select_p50_ms": med(self.select_ms),
            "ledger.unattributed_share": run.unattributed_share(rec.covered_s),
        }
        out.update(codec_us(payloads, messages))
        out.update(rec.calls_and_self_us(
            ("protocol.selection.handle", "protocol.admission.handle",
             "protocol.global_select.handle"), run.count("spans")))
        return out


# ----------------------------------------------------------------------
class LiveDiscovery(LiveWorkload):
    name = "live_discovery"
    region_km = 40.0
    radius_km = 8.0

    def __init__(self, seed, smoke, recorder) -> None:
        super().__init__(seed, smoke, recorder)
        self.nodes = 100 if smoke else 500
        self.per_requester = 8 if smoke else 20      # discovers per window
        self.windows_per_round = 2 if smoke else 4
        self.sizes = {
            "nodes": self.nodes, "region_km": self.region_km, "radius_km": self.radius_km,
            "shards": 4, "replicas": 2, "requesters": CLIENTS,
            "discovers_per_round": CLIENTS * self.per_requester * self.windows_per_round,
            "discovers_per_heartbeat": 4,
            "loop": f"closed: {CLIENTS} requesters, one fresh connection per request",
        }
        self.manager: Optional[ManagerServer] = None
        self.plane: Optional[ControlPlaneCluster] = None
        self._window = 0
        self._answers: List[Tuple] = []
        # plain-round samples: path -> op -> latencies (s); path -> wall (s)
        self.latency: Dict[str, Dict[str, List[float]]] = {
            "routed": {"discover": [], "heartbeat": []},
            "direct": {"discover": [], "heartbeat": []},
        }
        self.phase_wall: Dict[str, float] = {"routed": 0.0, "direct": 0.0}
        # spans-round sums: path -> connections, partial-fetch seconds, discovers, discover s
        self.wire: Dict[str, List[float]] = {"routed": [0, 0.0, 0, 0.0], "direct": [0, 0.0, 0, 0.0]}

    async def _fill(self, address: Address) -> None:
        async def part(beats) -> None:
            for beat in beats:
                reply = await protocol.request(*address, "heartbeat", beat)
                if not reply.get("ok"):
                    self.problems.append(f"heartbeat refused during fill: {reply}")

        await asyncio.gather(*(part(self.beats[k::CLIENTS]) for k in range(CLIENTS)))

    def setup(self, variant: str = "plain") -> None:
        rng = random.Random(self.seed)
        area = MetroArea(MSP_CENTER, self.region_km, rng)
        policy = GlobalSelectionPolicy(geo_filter=GeoProximityFilter(
            radius_km=self.radius_km, wide_radius_km=self.region_km * 2))
        self.beats = [
            {"status": to_wire(synthetic_status(f"n{i:05d}", area, rng)),
             "host": "127.0.0.1", "port": 9}
            for i in range(self.nodes)
        ]
        points = [area.sample() for _ in range(
            CLIENTS * self.per_requester * self.windows_per_round)]
        self.queries = [
            {"query": to_wire(DiscoveryQuery(f"u{i:04d}", p.lat, p.lon, 3))}
            for i, p in enumerate(points)
        ]
        self.manager = ManagerServer(policy=policy, heartbeat_timeout_s=3600.0)
        self.plane = ControlPlaneCluster(shards=4, replicas=2, policy=policy,
                                         heartbeat_timeout_s=3600.0)
        self.run(self.manager.start())
        self.run(self.plane.start())
        self._served.append((self.manager.host, self.manager.port))
        self._served.append(self.plane.address)
        self._served.extend(("127.0.0.1", m.port) for ms in self.plane.managers for m in ms)
        self.run(self._fill((self.manager.host, self.manager.port)))
        self.run(self._fill(self.plane.address))

    def teardown(self) -> None:
        if self.manager is not None:
            self.run(self.manager.stop())
            self.run(self.plane.stop())
        self.manager = self.plane = None

    def begin_round(self, variant: str) -> None:
        self._window = 0
        self._answers = []
        rec = self.recorder
        if rec is None:
            return
        rec.unwrap_all()
        if variant == "spans":
            rec.round += 1
            rec.wrap_async(protocol, "request", "runtime.wire.request",
                           key=lambda host, port, op, *a, **k: op)
            rec.wrap(GlobalSelectionMachine, "handle", "protocol.global_select.handle")

    async def _requester(self, address: Address, queries, beats, out) -> None:
        """Discover exactly as ``LiveClient._discover_io`` does; one
        heartbeat (an idempotent refresh) per four discovers."""
        for i, query in enumerate(queries):
            start = perf_counter()
            reply = await protocol.request(*address, "discover", query, timeout=5.0)
            took = perf_counter() - start
            candidates = from_wire(reply["candidates"]) if reply.get("ok") else None
            out["discover"].append(
                (took, (candidates.node_ids, candidates.widened) if candidates else None))
            if i % 4 == 3:
                start = perf_counter()
                reply = await protocol.request(*address, "heartbeat", beats[i // 4])
                out["heartbeat"].append((perf_counter() - start, bool(reply.get("ok"))))

    def _phase(self, path: str, address: Address, queries, beats, spans: bool):
        outs = [{"discover": [], "heartbeat": []} for _ in range(CLIENTS)]
        rec = self.recorder
        wire = "runtime.wire.request"
        before = {op: (rec.total(wire, op).calls, rec.total(wire, op).total_s)
                  for op in ("discover", "discover_partial")} if spans else {}
        with Timed() as t:
            self.gather(*(
                self._requester(address, queries[k::CLIENTS], beats[k::CLIENTS], outs[k])
                for k in range(CLIENTS)
            ))
        if spans:
            sums = self.wire[path]
            for op in before:
                sums[0] += rec.total(wire, op).calls - before[op][0]
            sums[1] += rec.total(wire, "discover_partial").total_s - before["discover_partial"][1]
            sums[2] += len(queries)
            sums[3] += sum(took for o in outs for took, _ in o["discover"])
        return t, outs

    def window(self, variant: str) -> Slice:
        n = CLIENTS * self.per_requester
        queries = self.queries[self._window * n:][:n]
        beats = self.beats[self._window * n // 4:][: n // 4]
        self._window += 1
        spans = variant == "spans"
        t, routed = self._phase("routed", self.plane.address, queries, beats, spans)
        ref_t, direct = self._phase("direct", (self.manager.host, self.manager.port),
                                    queries, beats, spans)
        failed = ops = 0
        for got_side, want_side in zip(routed, direct):
            for (_, got), (_, want) in zip(got_side["discover"], want_side["discover"]):
                ops += 1
                self._answers.append(got)
                # wrong = error reply, empty list, or not the single manager's answer
                failed += got is None or not got[0] or got != want
            for _, ok in got_side["heartbeat"]:
                ops += 1
                failed += not ok
        if variant == "plain":
            for path, outs, timed in (("routed", routed, t), ("direct", direct, ref_t)):
                self.phase_wall[path] += timed.wall_s
                for op in ("discover", "heartbeat"):
                    self.latency[path][op].extend(x[0] for o in outs for x in o[op])
        return Slice(ops, failed, t.cpu_s, t.wall_s)

    def end_round(self, variant: str) -> Dict[str, Any]:
        return {"answers": len(self._answers),
                "crc32": zlib.crc32(repr(self._answers).encode())}

    def layer_metrics(self, run: Run) -> Dict[str, float]:
        rec = self.recorder
        routed, direct = self.latency["routed"], self.latency["direct"]
        r_conn, r_fetch_s, r_n, r_disc_s = self.wire["routed"]
        d_conn, _, d_n, _ = self.wire["direct"]
        candidates = from_wire(self.run(protocol.request(
            self.manager.host, self.manager.port, "discover", self.queries[0]))["candidates"])
        out = {
            "runtime.manager.discover_p50_us": statistics.median(direct["discover"]) * 1e6,
            "runtime.manager.heartbeat_p50_us": statistics.median(direct["heartbeat"]) * 1e6,
            "runtime.wire.connections_per_discover": r_conn / max(1, r_n),
            "runtime.wire.connections_per_discover_direct": d_conn / max(1, d_n),
            "controlplane.router.fetch_share": r_fetch_s / r_disc_s if r_disc_s else 0.0,
            "discover_qps": len(routed["discover"]) / self.phase_wall["routed"],
            "discover_qps_single": len(direct["discover"]) / self.phase_wall["direct"],
            "discover_p99_ms": percentile(routed["discover"], 0.99) * 1e3,
            "heartbeat_per_s": len(routed["heartbeat"]) / self.phase_wall["routed"],
            "ledger.unattributed_share": run.unattributed_share(rec.covered_s),
        }
        out.update(codec_us(
            [self.beats[0], {"ok": True, "candidates": to_wire(candidates), "addresses": {}}],
            [from_wire(self.beats[0]["status"]), from_wire(self.queries[0]["query"]), candidates],
        ))
        out.update(rec.calls_and_self_us(("protocol.global_select.handle",),
                                         run.count("spans")))
        return out
