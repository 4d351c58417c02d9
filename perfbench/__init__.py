"""The repository benchmark: three workloads on both clocks (see README.md)."""
