"""End-to-end benchmark: seven workloads over sim, serve and procs (see README.md)."""
