"""Set-up time of a fresh CLI process: import asymqkd.cli, call build_parser().

    python3 benchmarks/setup_probe.py

Started by ``run.py`` once per probe.  The timer starts before any import
but ``os``, ``sys`` and ``time``, which the interpreter has loaded at
start-up, so every module asymqkd pulls in (argparse, dataclasses, enum,
typing, numpy) is counted.  Right after, it times rounds of the
``calibrate.INTERPRETER`` kernel as the host speed of the probe.  Prints both
times as one JSON object.
"""

import os
import sys
import time

# Kernel rounds timed after the set-up: about 0.13 s, as long as the set-up.
PROBE_ROUNDS = 10


def main() -> int:
    t0 = time.perf_counter()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import asymqkd.cli

    asymqkd.cli.build_parser()
    elapsed = time.perf_counter() - t0

    # Only after timing: prove the package came from this checkout, and
    # time the reference kernel right after the set-up, in the same process.
    import json
    from pathlib import Path

    from calibrate import INTERPRETER

    if Path(asymqkd.cli.__file__).resolve().parent != (Path(src) / "asymqkd").resolve():
        print(f"asymqkd imported from {asymqkd.cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    INTERPRETER.round_s()  # the first round pays for first calls and the working set
    print(json.dumps({"setup_s": elapsed, "kernel_s": INTERPRETER.round_s(PROBE_ROUNDS)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
