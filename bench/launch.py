"""Start one benchmark child under the address-space cap and record its peak
resident memory.

    python3 bench/launch.py PEAK_FILE CAP_BYTES -m MODULE [ARGS...]
    python3 bench/launch.py PEAK_FILE CAP_BYTES -c CODE
    python3 bench/launch.py PEAK_FILE CAP_BYTES SCRIPT [ARGS...]

The cap is set in this process only, before the target runs. The peak is
VmHWM of this process, written to PEAK_FILE in KiB when the target ends:
the rusage of a child also counts the parent's pages at fork time, VmHWM
counts only what this program touched after exec.
"""

import os
import resource
import runpy
import sys


def peak_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> None:
    peak_file, cap, target, *args = sys.argv[1:]
    resource.setrlimit(resource.RLIMIT_AS, (int(cap), int(cap)))
    try:
        if target == "-m":
            sys.argv = [args[0], *args[1:]]
            sys.path[0] = os.getcwd()
            runpy.run_module(args[0], run_name="__main__", alter_sys=True)
        elif target == "-c":
            sys.argv = ["-c"]
            sys.path[0] = ""
            exec(compile(args[0], "<string>", "exec"), {"__name__": "__main__"})
        else:
            sys.argv = [target, *args]
            sys.path[0] = os.path.dirname(os.path.abspath(target))
            runpy.run_path(target, run_name="__main__")
    finally:
        with open(peak_file, "w", encoding="ascii") as fh:
            fh.write(str(peak_kib()))


if __name__ == "__main__":
    main()
