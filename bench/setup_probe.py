"""Time one workload's set-up in a fresh interpreter.

Usage: python3 bench/setup_probe.py WORKLOAD SEED

Prints the seconds from just before ``import stpt`` until the suite and
generator are built (campaigns) or the formulas are parsed and the trace
is built (``trace-check``). The benchmark's own inputs are made before
the clock starts.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main(workload: str, seed: int) -> None:
    inputs = workloads.trace_inputs(seed) if workload == workloads.TRACE_CHECK else None
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import stpt

    if inputs is not None:
        [stpt.parse_invariant(text) for text in inputs.texts]
        workloads.build_trace(stpt, inputs.trace)
    else:
        campaign = workloads.CAMPAIGNS[workload]
        suite = workloads.build_suite(stpt, campaign)
        stpt.gen_enabled_commands(suite.model, suite.default_weights, campaign.max_len)
    elapsed = time.perf_counter() - started
    if Path(stpt.__file__).resolve().parent != SRC / "stpt":
        sys.exit(f"stpt was not imported from {SRC}")
    print(repr(elapsed))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
