"""miniq: a desk-scale batch workload manager.

Parses PBS and SLURM job scripts into one normalized job description,
schedules jobs over a modeled node inventory with FIFO + EASY backfill,
runs them as supervised processes with walltime enforcement, and offers
screen-style detachable sessions, all behind a small token-authenticated
TCP daemon with an append-only recovery journal.
"""

__version__ = "0.1.0"
