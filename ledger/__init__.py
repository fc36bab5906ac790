"""Performance ledger: named workloads, host-time and simulated-tail
end-to-end metrics, per-package layer attribution.  See README.md."""
