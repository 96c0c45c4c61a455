"""Set-up probe: import the package, build one workload's program, say "ready".

Run as ``python3 perfbench/ready.py WORKLOAD`` with the checkout's ``src`` on
``PYTHONPATH``. The parent times process start to the "ready" line; no
inputs are generated here.
"""

import sys


def build(workload: str) -> None:
    if workload == "sweep-grid":
        from repro.engine.cache import LRUCache
        from repro.node.calibration import build_node_model

        build_node_model()
        LRUCache()
    elif workload == "monitor-replay":
        from repro.live.monitor import build_monitor
        from repro.live.supervisor import SupervisorConfig

        build_monitor(supervisor_config=SupervisorConfig())
    elif workload == "sched-trace":
        import numpy as np

        from repro.node.calibration import build_node_model
        from repro.scheduler import BackfillScheduler, MalleableScheduler, StaticEnvironment
        from repro.telemetry.series import TimeSeries

        environment = StaticEnvironment(node_model=build_node_model())
        BackfillScheduler(256)
        MalleableScheduler(256, environment, TimeSeries(np.array([0.0, 1800.0]), np.array([100.0, 100.0]), "ci"))
    else:
        raise SystemExit(f"no set-up probe for {workload!r}")


if __name__ == "__main__":
    build(sys.argv[1])
    print("ready", flush=True)
