"""Set-up cost, and peak memory, of one fresh ``tpm-lab`` process.

Usage: python3 perfbench/setup_probe.py SRC_DIR CONFIG... [-- CLI_ARG...]

Imports the CLI from SRC_DIR, loads every config, and prints the seconds
this took; interpreter start-up is not tpm-lab's and is not included.
Given CLI arguments after ``--``, it then runs that one case and prints
the process's peak RSS in MiB on a second line.
"""

import resource
import sys
import time

start = time.perf_counter()
args = sys.argv[1:]
split = args.index("--") if "--" in args else len(args)
src, *configs = args[:split]
case_argv = args[split + 1:]
sys.path.insert(0, src)
import tpm_lab.cli  # noqa: E402

for config_path in configs:
    tpm_lab.cli.load_scenario(config_path)
print(time.perf_counter() - start)

if case_argv:
    exit_code = tpm_lab.cli.main(case_argv)
    if exit_code != 0:
        sys.exit(f"setup_probe: case exited with {exit_code}")
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
