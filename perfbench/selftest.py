"""Self-test of the benchmark at a tiny size; takes a few seconds.

    python3 perfbench/selftest.py

Runs every workload untraced and traced at the acceptance suite's small
pipeline size (16x16, 4 echoes, ensemble of 32, short design settings) and
checks that every metric is emitted with a valid name and a unit, that the
result line matches BENCHMARK.json, and that every function the tracer
wrapped is back in place afterwards, so untraced runs measure unwrapped code.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import re
import sys

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check(cond, message):
    if not cond:
        raise SystemExit(f"selftest: {message}")


def check_declaration(declared):
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    check(len(names) == len(set(names)), "metric names repeat")
    for m in declared["end_to_end"] + declared["per_layer"]:
        check(NAME.fullmatch(m["name"]), f"bad metric name {m['name']!r}")
        check(UNIT.fullmatch(m["unit"]), f"bad unit {m['unit']!r}")
        check(m["better"] in ("lower", "higher"), f"bad direction {m}")
    for m in declared["end_to_end"]:
        check(0 < m["bound"] <= 0.25, f"bound out of range: {m}")
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s must be declared in s, lower is better")
    check(max(m["bound"] for m in declared["end_to_end"]) == setup[0]["bound"],
          "setup_s must have the largest bound")


def main() -> int:
    run.pin_threads()
    run.import_package()
    import tracing
    import workloads

    declared = run._declared()
    check_declaration(declared)
    layer_units = {n: u for n, (u, _) in tracing.LAYER_METRICS.items()}
    check({m["name"]: m["unit"] for m in declared["per_layer"]} == layer_units,
          "BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")

    originals = [(owner, attr, value) for owner, attr, value
                 in tracing.bindings()]
    for workload in workloads.NAMES:
        for trace in (False, True):
            record = run.run(workload, 0, 0.01, trace, tiny=True)
            line = json.loads(json.dumps(run.result_line(record)))
            check(set(line) == {"correct", "attempted", "failed", "metrics"},
                  "result line keys")
            check(line["correct"] and line["failed"] == 0,
                  f"{workload} trace={trace} failed: {record['failures']}")
            check(line["attempted"] >= run.MIN_JOBS, "too few jobs")
            kind = "per_layer" if trace else "end_to_end"
            check(set(line["metrics"]) == {m["name"] for m in declared[kind]},
                  f"{workload} trace={trace} emits other metrics than "
                  f"BENCHMARK.json {kind}")
            for name, m in record["metrics"].items():
                check(NAME.fullmatch(name), f"bad metric name {name!r}")
                check(UNIT.fullmatch(m["unit"]), f"bad unit for {name}")
                check(isinstance(m["value"], (int, float)),
                      f"{name} is not a number")
            for owner, attr, value in originals:
                check(getattr(owner, attr) is value,
                      f"{getattr(owner, '__name__', owner)}.{attr} is still "
                      f"wrapped after a {workload} run")
        print(f"selftest: {workload} ok")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
