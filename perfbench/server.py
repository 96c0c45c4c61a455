"""The facility service in its own process, for the service-mix workload.

Built the way ``repro serve`` builds it: ``FacilityService`` with no disk
store, an ``AdmissionController`` whose limits sit far above the offered
load, and the stdlib ``ServiceHTTPServer`` on an ephemeral port.

Protocol with the parent: one JSON line ``{"port": N}`` once listening;
closing stdin stops the server, which then prints ``{"peak_rss_kb": N}``.
With ``--trace-out FILE`` the service layers are wrapped by a
:class:`~perfbench.tracing.Tracer` and its table is written to FILE on stop.
"""

import argparse
import asyncio
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: Admission limits far above what a few closed-loop connections offer.
RATE_PER_S = 1e6
BURST = 1e6
MAX_IN_FLIGHT = 1024


async def serve(trace_out: str | None) -> None:
    from repro.service import AdmissionController, FacilityService, ServiceHTTPServer

    tracer = None
    if trace_out:
        from perfbench.service_mix import trace_service
        from perfbench.tracing import Tracer

        tracer = Tracer()
    service = FacilityService(
        cache_dir=None,
        admission=AdmissionController(
            rate_per_s=RATE_PER_S, burst=BURST, max_in_flight=MAX_IN_FLIGHT
        ),
    )
    if tracer is not None:
        trace_service(tracer, service)
    server = ServiceHTTPServer(service, host="127.0.0.1", port=0)
    await server.start()
    print(json.dumps({"port": server.port}), flush=True)
    try:
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.buffer.read)
    finally:
        await server.stop()
        await service.drain()
        if tracer is not None:
            tracer.restore()
            table = {"layers": tracer.summary(), "metrics": service.metrics.state_dict()}
            Path(trace_out).write_text(json.dumps(table, sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    asyncio.run(serve(args.trace_out))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_kb": peak_kb}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
