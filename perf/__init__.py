"""The layered performance benchmark: see ``perf/README.md``."""
