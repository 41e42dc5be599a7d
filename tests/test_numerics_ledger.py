"""Every benchmark workload's short cell reproduces its ledger digest.

The relative pins elsewhere (kernel ≡ oracle, replay ≡ eager) pass when
both sides move together; these absolute digests do not.  A mismatch names
the workload: either revert the accident, or declare the numerics change by
editing ``tests/golden/ledger.json`` (``python -m tests.numerics_ledger``
prints the new digests) and quoting old → new in CHANGES.md.
"""

from tests.numerics_ledger import LEDGER, short_cell_digest, workloads


def test_short_cells_reproduce_the_ledger():
    expected = LEDGER["short_cells"]["digests"]
    assert sorted(expected) == sorted(w.name for w in workloads.WORKLOADS)
    moved = {}
    for workload in workloads.WORKLOADS:
        digest = short_cell_digest(workload)
        if digest != expected[workload.name]:
            moved[workload.name] = f"{expected[workload.name]} -> {digest}"
    assert not moved, f"numerics moved on {sorted(moved)}: {moved}"


def test_full_length_values_cover_every_workload():
    # Data only: the benchmark's full-length seed-0 runs, checked by hand
    # (benchmarks/perf/run.py --workload W --seed 0) against these entries.
    full = LEDGER["full_length_seed0"]
    assert sorted(full) == sorted(w.name for w in workloads.WORKLOADS)
    for name, workload in workloads.BY_NAME.items():
        assert len(full[name]["loss_digest"]) == 64
        assert isinstance(full[name]["iters_to_target"], int)
        assert ("sim_time_s" in full[name]) == workload.seeded_clock
