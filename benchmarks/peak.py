"""Write this process's own peak RSS when it exits.

The rusage that ``os.wait4`` returns for a child is not enough on Linux: exec
carries the high-water mark of the address space it replaces (the fork of
run.py's process) into the child's ``ru_maxrss``. ``VmHWM`` in
``/proc/self/status`` belongs to the process's own address space. Importing
this module registers the write; run.py names the file in
``BENCH_HWM_FILE``.
"""

import atexit
import os


def _write_peak() -> None:
    with open("/proc/self/status", encoding="ascii") as status:
        kilobytes = next(line for line in status if line.startswith("VmHWM:")).split()[1]
    with open(os.environ["BENCH_HWM_FILE"], "w", encoding="ascii") as out:
        out.write(kilobytes)


atexit.register(_write_peak)
