"""End-to-end and per-layer benchmark of the service, sweep, monitor and scheduler."""
