"""Level-recovery benchmark for qdosc: see README.md in this directory."""
