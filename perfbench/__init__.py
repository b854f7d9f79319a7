"""The repository's benchmark: end-to-end metrics and a traced per-layer
ladder over ``repro.core`` → ``repro.cache`` → ``repro.twemcache`` →
``repro.cluster``.  Entry point: ``python3 perfbench/run.py``."""
