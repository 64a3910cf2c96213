"""Run ``repro serve`` and print its own CPU time on SIGUSR1.

Usage: python3 perfbench/serve_host.py [repro serve options]

The benchmark starts the server through this file instead of
``python -m repro serve`` only to read the server's CPU time at the two
ends of the timed window: on SIGUSR1 the process prints
``cpu <user+system seconds>`` to standard output.  Everything else is
``repro.cli.main(["serve", ...])`` unchanged.
"""

import resource
import signal
import sys


def _report_cpu(signum, frame):
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"cpu {usage.ru_utime + usage.ru_stime!r}", flush=True)


if __name__ == "__main__":
    signal.signal(signal.SIGUSR1, _report_cpu)
    from repro.cli import main

    sys.exit(main(["serve", *sys.argv[1:]]))
