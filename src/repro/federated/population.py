"""The client population: logical clients mapped lazily onto replica slots.

The flat-buffer core only ever materializes ``(K, n)`` state — parameter
rows, the optimizer's velocity matrix, error-feedback residuals and
``ParameterDeltaCodec`` references are all slot-indexed.  The
:class:`ClientPopulation` layers a logical population of ``N`` clients on
top: each round a :class:`~repro.federated.sampler.ClientSampler` picks a
cohort of ``K`` clients, and a :class:`SlotAssignment` binds each cohort
client to one slot.  At a round boundary the previous cohort's per-client
persistent state is swapped out of the slot arrays into a lazy
:class:`ClientStateStore` (clients that never participated cost nothing)
and the new cohort's state is swapped in, with every slot's parameter row
reset to the post-averaging global model.

Rounds align with the fedavg sync period ``H``: a boundary falls at every
iteration where ``global_iteration % H == 0``, i.e. immediately after the
previous round's parameter averaging, when all alive slot rows are bitwise
identical — so "the global model" is simply slot 0's row.  Under the
``full`` sampler the cohort never changes and every boundary is a no-op,
which keeps fedavg bit-identical to ``local_sgd`` by construction.

A sampled cohort's mini-batches come from one stream per client, keyed by
``(run seed, "client_batch", client)``: iteration ``i``'s batch is drawn at
``i << 40`` draws past that PCG64's base state, reached by a jump, so a batch
is a pure function of the seed, the client and the iteration — whatever the
cohort, the slot or the earlier draws — and resume saves no stream.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compress.base import Compressor, restore_compressor_state
from repro.data.partition import ClientShards
from repro.federated.config import ClientSpec
from repro.federated.sampler import CLIENT_SAMPLERS
from repro.utils.rng import new_rng

#: Cap on the recorded cohort history (property tests read it; simulated
#: runs are a few hundred rounds, this only guards pathological loops).
_HISTORY_LIMIT = 10_000

#: A client stream jumps ``iteration << _ITERATION_SHIFT`` draws ahead for an
#: iteration's batch, so every batch owns 2**40 draws of its client's stream.
_ITERATION_SHIFT = 40

#: The compressor state vectors a client takes out of its slot.  The
#: generator stays with the slot, whichever client the slot hosts.
_STATE_KINDS = ("residual", "velocity")


def _state_vectors(compressor: Compressor) -> Dict[str, np.ndarray]:
    """The compressor state a client takes out of its slot: its vectors."""
    vectors = {kind: getattr(compressor, f"_{kind}", None) for kind in _STATE_KINDS}
    return {kind: value for kind, value in vectors.items() if value is not None}


class SlotAssignment:
    """One round's binding of cohort clients onto replica slots.

    Slot ``s`` hosts client ``clients[s]``; cohorts are sorted client-id
    tuples, so the ``full`` sampler's assignment is always the identity.
    """

    def __init__(self, clients: Sequence[int]):
        self.clients: Tuple[int, ...] = tuple(int(c) for c in clients)
        self.slot_of: Dict[int, int] = {c: s for s, c in enumerate(self.clients)}

    def __len__(self) -> int:
        return len(self.clients)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SlotAssignment({list(self.clients)})"


class ClientStateStore:
    """Lazy parking lot for swapped-out per-client slot state.

    Holds one entry per client that has been swapped out at least once —
    a velocity vector, gradient-compressor state, and codec reference /
    codec-compressor state.  Clients that never participated have no entry,
    so memory scales with participation, never with ``N``.
    """

    def __init__(self):
        self._entries: Dict[int, Dict[str, object]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, client: int) -> bool:
        return int(client) in self._entries

    def clients(self) -> List[int]:
        return sorted(self._entries)

    def put(self, client: int, *, velocity: np.ndarray,
            compressor: Dict[str, np.ndarray],
            codec_reference: Optional[np.ndarray],
            codec_compressor: Optional[Dict[str, np.ndarray]]) -> None:
        self._entries[int(client)] = {
            "velocity": velocity,
            "compressor": compressor,
            "codec_reference": codec_reference,
            "codec_compressor": codec_compressor,
        }

    def pop(self, client: int) -> Optional[Dict[str, object]]:
        return self._entries.pop(int(client), None)

    def get(self, client: int) -> Optional[Dict[str, object]]:
        return self._entries.get(int(client))

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def state_arrays(self) -> Dict[str, np.ndarray]:
        arrays: Dict[str, np.ndarray] = {}
        for client, entry in self._entries.items():
            prefix = f"store_{client}_"
            arrays[prefix + "velocity"] = entry["velocity"]
            for kind, value in (entry["compressor"] or {}).items():
                arrays[prefix + f"comp_{kind}"] = value
            if entry["codec_reference"] is not None:
                arrays[prefix + "codecref"] = entry["codec_reference"]
            for kind, value in (entry["codec_compressor"] or {}).items():
                arrays[prefix + f"codeccomp_{kind}"] = value
        return arrays

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        self._entries.clear()
        grouped: Dict[int, Dict[str, np.ndarray]] = {}
        for name, value in arrays.items():
            if not name.startswith("store_"):
                continue
            client_str, _, field = name[len("store_"):].partition("_")
            grouped.setdefault(int(client_str), {})[field] = np.array(value,
                                                                      copy=True)
        for client, fields in grouped.items():
            self.put(
                client,
                velocity=fields["velocity"],
                compressor={kind: fields[f"comp_{kind}"] for kind in _STATE_KINDS
                            if f"comp_{kind}" in fields},
                codec_reference=fields.get("codecref"),
                codec_compressor={kind: fields[f"codeccomp_{kind}"]
                                  for kind in _STATE_KINDS
                                  if f"codeccomp_{kind}" in fields},
            )


class ClientPopulation:
    """Round-scoped orchestration of sampling, slot swapping and data.

    Built by the trainer when the spec carries an enabled ``clients``
    section; the trainer calls :meth:`begin_round` at the top of every
    iteration (it no-ops away from round boundaries) and
    :meth:`draw_batches` to pull the cohort's mini-batches.
    """

    def __init__(self, spec: ClientSpec, world_size: int):
        self.spec = spec
        self.num_clients = int(spec.num_clients)
        self.world_size = int(world_size)
        self.cohort_size = int(spec.cohort_size) if spec.cohort_size is not None \
            else self.world_size
        self.sampler_name = CLIENT_SAMPLERS.canonical(str(spec.sampler))
        self.sampler = CLIENT_SAMPLERS.create(self.sampler_name)
        self.sampler_seed = int(spec.sampler_seed)
        self.round_index = 0
        self.rounds_completed = 0
        self.assignment: Optional[SlotAssignment] = None
        self.store = ClientStateStore()
        self.cohort_history: List[Tuple[int, ...]] = []
        self._seen = np.zeros(self.num_clients, dtype=bool)
        # bound by the trainer's data setup (sampled-cohort mode only)
        self.shards: Optional[ClientShards] = None
        self.batch_size: Optional[int] = None
        self._data_seed = 0
        self._sizes: List[int] = []
        #: client -> (its batch generator, the generator's base state), made
        #: at its first draw
        self._streams: Dict[int, Tuple[np.random.Generator, dict]] = {}

    @property
    def identity_assignment(self) -> bool:
        """True when slots and clients are permanently one and the same.

        The ``full`` sampler with ``N == P`` always assigns client ``c`` to
        slot ``c``; the trainer then keeps its default per-rank loaders and
        every swap is a no-op (the fedavg ≡ local_sgd bit-identity path).
        """
        return self.sampler.full_participation \
            and self.num_clients == self.world_size

    # ------------------------------------------------------------------ #
    # round lifecycle
    # ------------------------------------------------------------------ #
    def begin_round(self, trainer) -> None:
        """Advance to a new round when the iteration sits on a boundary.

        Must run *before* the iteration's gradients: boundaries fall right
        after the previous round's parameter averaging, so all alive slot
        rows are bitwise identical and slot 0's row is the global model.
        """
        period = int(getattr(trainer.sync_strategy, "period", 1) or 1)
        if trainer._global_iteration % max(1, period) != 0:
            return
        round_index = trainer._global_iteration // max(1, period)
        cohort = self.sampler.sample(round_index, self.num_clients,
                                     self.cohort_size, self.sampler_seed)
        self.round_index = round_index
        self.rounds_completed += 1
        if len(self.cohort_history) < _HISTORY_LIMIT:
            self.cohort_history.append(cohort)
        previous = self.assignment
        if previous is None or cohort == previous.clients:
            # Round 0 slots already hold fresh-client state (zero velocity,
            # reset compressors, init params); identical cohorts keep their
            # slots — both are exact no-ops, preserving bit-identity.
            self.assignment = SlotAssignment(cohort)
            self._seen[list(cohort)] = True
            return
        self._swap(trainer, previous, cohort)
        self.assignment = SlotAssignment(cohort)
        self._seen[list(cohort)] = True

    def _swap(self, trainer, previous: SlotAssignment,
              cohort: Tuple[int, ...]) -> None:
        """Park the previous cohort's slot state and seat the new cohort's.

        Every slot restarts from the global model: the parameter rows, the
        momentum rows (zero) and the codec references are reset as one block
        each, and only a returning client's rows are then written back.  A
        client swapped in for the first time keeps that fresh state: zero
        momentum, reset compressors and the global model as its codec
        reference.
        """
        params = trainer.flat_world.param_matrix
        velocity = trainer._velocity_matrix
        codec = getattr(trainer.sync_strategy, "parameter_codec", None)
        references = codec._references if codec is not None else None
        banks = [trainer.compressors] + ([codec.compressors] if codec is not None else [])

        for slot, client in enumerate(previous.clients):
            self.store.put(
                client,
                velocity=velocity[slot].copy(),
                compressor=_state_vectors(trainer.compressors[slot]),
                codec_reference=None if references is None else references[slot].copy(),
                codec_compressor=None if codec is None
                else _state_vectors(codec.compressors[slot]))
        entries = [self.store.pop(client) for client in cohort]

        global_model = params[0].copy()
        params[:] = global_model
        velocity[:] = 0.0
        if references is not None:
            references[:] = global_model
        for compressors in banks:
            for compressor in compressors:
                compressor.reset_state()
        for slot, entry in enumerate(entries):
            if entry is None:
                continue
            velocity[slot] = entry["velocity"]
            restore_compressor_state(trainer.compressors[slot], entry["compressor"])
            if codec is not None:
                restore_compressor_state(codec.compressors[slot], entry["codec_compressor"])
                if references is not None and entry["codec_reference"] is not None:
                    references[slot] = entry["codec_reference"]

    # ------------------------------------------------------------------ #
    # data
    # ------------------------------------------------------------------ #
    def bind_data(self, shards: ClientShards, batch_size: int, seed: int) -> None:
        """Attach the per-client shards (sampled-cohort mode).

        A batch is then a pure function of ``(seed, client, iteration)``
        (see :meth:`draw_batches`), so resume needs no replay and a client's
        stream never depends on how often other clients were sampled.
        """
        if len(shards) != self.num_clients:
            raise ValueError(f"expected {self.num_clients} client shards, "
                             f"got {len(shards)}")
        self.shards = shards
        self.batch_size = int(batch_size)
        self._data_seed = int(seed)
        self._streams = {}
        self._sizes = shards.sizes.tolist()

    def _batch_rows(self, client: int, iteration: int) -> List[int]:
        """The shard rows of ``client``'s batch at ``iteration``.

        The client's generator, keyed by ``(seed, "client_batch", client)``,
        is reset to its base state and jumped ``iteration << 40`` draws
        ahead, and ``batch_size`` uniforms from there pick the rows.  They
        are distinct (Floyd's sampling without replacement) unless the shard
        has fewer than ``batch_size`` rows, which are then drawn with
        replacement.
        """
        stream = self._streams.get(client)
        if stream is None:
            rng = new_rng("client_batch", client, seed=self._data_seed)
            stream = self._streams[client] = (rng, rng.bit_generator.state)
        rng, base = stream
        rng.bit_generator.state = base
        rng.bit_generator.advance(iteration << _ITERATION_SHIFT)
        batch_size = self.batch_size
        uniforms = rng.random(batch_size).tolist()
        n = self._sizes[client]
        if n < batch_size:
            return [int(u * n) for u in uniforms]
        picked: List[int] = []
        top = n - batch_size
        for u in uniforms:
            row = int(u * (top + 1))
            picked.append(top if row in picked else row)
            top += 1
        return picked

    def draw_batches(self, global_iteration: int
                     ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The cohort's mini-batches for one iteration, slot-ordered: one
        ``(K, B, ...)`` gather over the client-ordered data, one batch a
        slot."""
        if self.shards is None or self.assignment is None:
            raise RuntimeError("draw_batches before bind_data/begin_round")
        shards = self.shards
        clients = self.assignment.clients
        iteration = int(global_iteration)
        rows = []
        for client in clients:
            rows += self._batch_rows(client, iteration)
        index = np.array(rows, dtype=np.intp).reshape(len(clients), self.batch_size)
        index += shards.offsets[list(clients)][:, None]
        return list(zip(shards.inputs[index], shards.targets[index]))

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, object]:
        """Participation counters for metrics/CSV/run output."""
        active = 0 if self.assignment is None else len(self.assignment)
        return {
            "num_clients": self.num_clients,
            "cohort_size": self.cohort_size,
            "active_clients": active,
            "cohort_fraction": self.cohort_size / self.num_clients,
            "unique_clients_seen": int(self._seen.sum()),
            "rounds": self.rounds_completed,
        }

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def state_arrays(self) -> Dict[str, np.ndarray]:
        arrays: Dict[str, np.ndarray] = {
            "round": np.array([self.round_index, self.rounds_completed],
                              dtype=np.int64),
            "seen": self._seen.astype(np.int8),
        }
        if self.assignment is not None:
            arrays["assignment"] = np.array(self.assignment.clients,
                                            dtype=np.int64)
        arrays.update(self.store.state_arrays())
        return arrays

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        self.round_index, self.rounds_completed = arrays["round"].tolist()
        self._seen = np.asarray(arrays["seen"]).astype(bool).copy()
        if "assignment" in arrays:
            self.assignment = SlotAssignment(
                np.asarray(arrays["assignment"], dtype=np.int64).tolist())
        self.store.load_state_arrays(arrays)
