"""Shared low-level utilities: bit manipulation, RNG plumbing, native
kernel loading, the record codec, telemetry and text tables."""
