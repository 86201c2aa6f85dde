"""The benchmark of record (see ``bench/README.md`` and ``BENCHMARK.json``).

Six closed-loop workloads drive the public entry points of ``repro``
(``serve_jsonl`` and ``Trainer.fit``) from outside; a separate traced pass
records spans around each layer's public functions.  Nothing in ``src/`` knows
this package exists.
"""
