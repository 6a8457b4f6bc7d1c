#!/usr/bin/env python3
"""Hash-table merging on the GNU Go workload (section 2.5).

``accumulate_influence`` holds eight code segments with identical input
variables.  Without merging, eight separate tables blow a handheld-sized
memory budget and segments must be dropped; the merged table (one key,
a bit vector, eight output slots) fits and keeps the full speedup.

Run:  python examples/gnugo_merged_tables.py
"""

import repro
from repro.runtime.hashtable import entry_words, table_bytes
from repro.workloads import get_workload


def measure(workload, config):
    inputs = workload.default_inputs()
    program = repro.compile(workload.source, repro.CompileOptions(config=config))
    result = program.profile(inputs)

    baseline = repro.compile(workload.source, repro.CompileOptions(reuse=False)).run(inputs)
    transformed = program.run(inputs)
    assert baseline.output_checksum == transformed.output_checksum
    return transformed.speedup_vs(baseline), result


def main():
    workload = get_workload("GNUGO")
    budget = workload.memory_budget_bytes
    print(f"memory budget for reuse tables: {budget // 1024} KB\n")

    merged_cfg = repro.PipelineConfig(
        min_executions=workload.min_executions, memory_budget_bytes=budget
    )
    unmerged_cfg = repro.PipelineConfig(
        min_executions=workload.min_executions,
        memory_budget_bytes=budget,
        enable_merging=False,
    )

    speedup_m, result_m = measure(workload, merged_cfg)
    speedup_u, result_u = measure(workload, unmerged_cfg)

    # size accounting for the eight segments, shared capacity
    members = result_m.merged[next(iter(result_m.merged))]
    capacity = max(m.distinct_inputs * 4 for m in members)
    in_words, out_words = members[0].in_words, [m.out_words for m in members]
    separate = sum(table_bytes(capacity, entry_words(in_words, [w])) for w in out_words)
    shared = table_bytes(capacity, entry_words(in_words, out_words, merged=True))
    print("=== table sizes for the eight segments ===")
    print(f"eight separate tables: {separate // 1024} KB")
    print(f"one merged table:      {shared // 1024} KB")

    print("\n=== with merging (section 2.5) ===")
    print(f"segments transformed: {len(result_m.selected)} (dropped: {len(result_m.dropped_for_memory)})")
    print(f"whole-program speedup: {speedup_m:.2f} (paper: >1.2 with merging)")

    print("\n=== without merging, same budget ===")
    print(
        f"segments transformed: {len(result_u.selected)} "
        f"(dropped for memory: {len(result_u.dropped_for_memory)})"
    )
    print(f"whole-program speedup: {speedup_u:.2f}")
    print(
        "\n(the paper's unmerged version ran out of memory on the iPAQ "
        "outright; our budgeted pipeline degrades by shedding segments)"
    )


if __name__ == "__main__":
    main()
