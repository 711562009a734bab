"""Time one cold set-up in a fresh interpreter and print it in seconds.

Set-up is what every CLI invocation pays: importing the package and its CLI,
then one small call on the workload's parameters, which builds the field
tables and code caches.  Usage: setup_probe.py WORKLOAD (with src on
PYTHONPATH).
"""

import sys
import time

t0 = time.perf_counter()
import relaystream  # noqa: E402,F401
import relaystream.cli  # noqa: E402,F401

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].warm_up()
print(repr(time.perf_counter() - t0))
