"""End-to-end benchmark of the repro system: ``train``, ``sweep`` and
``serve`` workloads with outside-in per-layer timing (see ``run.py``)."""
