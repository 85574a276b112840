"""Set-up probe, timed from outside as the benchmark's set-up time.

    python3 bench/probe.py SYSTEM_JSON MODEL_JSON TRACE_CSV

Starts from a fresh interpreter, imports the CLI, then loads and validates the
configs and loads the trace through public functions: everything a run does
before its first layer call. Work moved into import or config loading shows
up here.
"""

import sys

import lamosim.cli  # noqa: F401  the CLI imports every layer
from lamosim.hwspec import load_model, load_system, validate_system
from lamosim.serving import load_trace_csv

if __name__ == "__main__":
    system_path, model_path, trace_path = sys.argv[1:4]
    validate_system(load_system(system_path), load_model(model_path))
    load_trace_csv(trace_path)
