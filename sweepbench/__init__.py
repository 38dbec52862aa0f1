"""End-to-end sweep benchmark (see run.py)."""
