"""End-to-end and per-layer benchmark of the repro stack (see README.md)."""
