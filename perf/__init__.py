"""Benchmark harness for the ``repro`` simulators, sweep engine and service.

Run one workload as ``python3 perf/run.py --workload NAME --seed N
--seconds S --trace 0|1``, or every workload with summaries as
``PYTHONPATH=src python -m perf``.  See ``perf/README.md``.
"""
