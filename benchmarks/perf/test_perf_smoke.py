"""Plumbing check of the benchmark (explicit opt-in, outside tier-1)::

    python -m pytest benchmarks/perf/test_perf_smoke.py -m bench
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

import child
import metrics
import run
import workloads

pytestmark = pytest.mark.bench


def test_manifest_matches_the_tables():
    manifest = json.loads(run.MANIFEST.read_text())
    assert manifest == metrics.manifest(run.COMMAND, run.PATHS, run.RUN_SECONDS,
                                        workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])


def test_smoke_suite_reports_every_metric_for_every_workload():
    done = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--smoke",
                           "--repeats", "1"], cwd=run.ROOT, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert "SMOKE RUN" in done.stdout
    names = {m["name"] for m in metrics.END_TO_END} | set(metrics.PER_LAYER_NAMES)
    seen = set()
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] in workloads.BY_NAME and parts[1] in names:
            assert math.isfinite(float(parts[2])), line
            seen.add((parts[0], parts[1]))
    missing = {(w, n) for w in workloads.BY_NAME for n in names} - seen
    assert not missing, sorted(missing)


def test_traced_run_removes_every_wrapper():
    child.require_source_tree()
    import tracing
    from repro.core.spec import ExperimentSpec
    from repro.core.trainer import DistributedTrainer

    def patched_attributes():
        tracer = tracing.Tracer()
        tracing.install_import_time_wrappers(tracer)
        owners = [(owner, attr, original) for owner, attr, _, original in tracer.patched]
        tracer.remove()
        return owners

    originals = patched_attributes()
    result = child.run("blackout_rejoin_ckpt", seed=0, traced=True, smoke=True)
    assert result["correct"], result["problems"]
    assert result["per_layer"]["checkpoint.load_ms"] > 0
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, (owner, attr)

    # A second, untraced trainer in the same process runs on the originals.
    workload = workloads.BY_NAME["blackout_rejoin_ckpt"]
    spec = ExperimentSpec.from_dict(workloads.spec_for(
        workload, 0, smoke=True, checkpoint_path=str(child.OUT / "unused.npz")))
    with DistributedTrainer(spec.validate().to_trainer_config()) as trainer:
        assert type(iter(trainer.loaders[0])).__name__ == "generator"
