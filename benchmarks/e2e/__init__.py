"""End-to-end benchmark: five paper-shaped workloads, attributed by layer."""
