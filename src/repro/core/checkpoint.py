"""Checkpointing for distributed training runs.

Long sweeps (the paper's 150-epoch VGG runs) need to survive interruption.
A checkpoint holds the state of everything in ``trainer.checkpoint_owners``:
per worker the parameters, momentum rows and compressor residual, each
attached subsystem's resume state, the progress counters and metric history.
Loading restores bit-identical training state so a resumed run continues
exactly where it stopped.

Every owner speaks one protocol — ``state_arrays() -> Dict[str, ndarray]`` /
``load_state_arrays(arrays)`` — under its own key prefix, so this module names
no subsystem: a new one implements the two methods and joins the list.

A file holds state, never history (each generator and batch stream by its
state), and is read only under the ``format_version`` it was written with.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.core.trainer import DistributedTrainer

#: The checkpoint layout this module writes and reads.
FORMAT_VERSION = 1


class CheckpointVersionError(ValueError):
    """A checkpoint of another format version, or of none: earlier files hold
    replay counts that no reader honours any more."""


def save_checkpoint(trainer: DistributedTrainer, path: str | Path) -> Path:
    """Write the trainer's full state to an ``.npz`` checkpoint.

    Returns the path written (``.npz`` is appended when missing, as
    ``np.savez`` does).  The write is atomic: a failure part-way leaves a
    previous checkpoint at that path untouched.
    """
    path = Path(path)
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)

    arrays = {"format_version": np.array([FORMAT_VERSION], dtype=np.int64)}
    for prefix, owner in trainer.checkpoint_owners:
        for key, value in owner.state_arrays().items():
            arrays[prefix + key] = value

    scratch = path.with_name(f".{path.stem}.{os.getpid()}.tmp.npz")
    try:
        np.savez_compressed(scratch, **arrays)
        os.replace(scratch, path)
    finally:
        scratch.unlink(missing_ok=True)
    return path


def load_checkpoint(trainer: DistributedTrainer, path: str | Path) -> DistributedTrainer:
    """Restore a trainer's state from :func:`save_checkpoint` output.

    The trainer must have been constructed with the same configuration
    (model, preset, world size); mismatches raise.  An owner none of whose
    keys are in the file (an async strategy saved before its first step, a
    subsystem the saving run did not have) keeps its fresh state.  A file of
    another format version raises :class:`CheckpointVersionError`.
    """
    with np.load(Path(path), allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    version = arrays.pop("format_version", None)
    found = "none" if version is None else int(version[0])
    if found != FORMAT_VERSION:
        raise CheckpointVersionError(f"checkpoint {path} has format version {found}; "
                                     f"this build reads version {FORMAT_VERSION}")
    for prefix, owner in trainer.checkpoint_owners:
        state = {name[len(prefix):]: value for name, value in arrays.items()
                 if name.startswith(prefix)}
        if state:
            owner.load_state_arrays(state)
    return trainer
