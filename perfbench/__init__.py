"""End-to-end and per-layer benchmark of alix_ray (see README.md)."""
