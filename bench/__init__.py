"""End-to-end and per-layer benchmark of archscale; see README.md."""
