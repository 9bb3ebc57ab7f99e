"""Active membership management: heartbeat leases, respawn, fencing.

Every :meth:`~repro.distributed.ProcessBackend.run` has one membership
path: a coordinator-side :class:`Supervisor` that turns a dead process —
or, with a lease plane, a missed lease — into a membership action
(respawn, evict, or keep waiting) under a declarative
:class:`LeasePolicy`. An unsupervised run is the ``evict`` policy with
no lease plane: survivors renormalise, so the run stays *correct* but
capacity decays. ``supervise=`` adds the recovery half: a shared-memory
**lease plane** every worker heartbeats into, plus per-round resume
checkpoints a respawned rank restores from.

Lease-cell layout (one ``int64[LEASE_CELLS]`` segment per rank, written
by the worker's heartbeat thread, read by the coordinator)::

    [0] beat sequence   — monotonically increasing, written LAST
    [1] generation      — the incarnation number stamped into the beat
    [2] last round      — highest fully synchronised round (-1 at start)
    [3] pid             — the beating process id (diagnostics only)

The cells follow the same kill-safe discipline as every round cell in
the worker protocol: payload first, sequence last. A worker killed
mid-beat leaves at worst an un-advanced sequence — never a torn beat —
and the coordinator measures liveness as *wall time since the sequence
last changed on its own clock*, so no cross-process clock comparison is
ever needed.

**Generation (fencing) tokens.** Every incarnation of a rank carries a
generation number; the worker stamps it into its state-meta block next
to the round number, and the coordinator accepts a round contribution
only when the stamped generation matches the rank's current one
(:meth:`Supervisor.fence_accepts`). Respawning bumps the generation, so
any publication the pre-crash incarnation managed to leave behind — or,
pathologically, writes from a hung incarnation that outlived its lease —
is provably discarded instead of silently averaged in. The supervisor
also wipes the rank's round cell before relaunch, so fencing is the
belt over that braces: rejoin is safe under either mechanism alone.

**Rejoin.** A respawned worker reattaches the same shm segments, restores
model/optimizer/dropout-RNG/fault-injector state from its per-rank
*resume checkpoint* (saved every round under the run's resume directory),
fast-forwards the deterministic fault schedule, and re-enters the round
loop one past its last completed round — the membership barrier is the
coordinator's ordinary gather, which cannot advance without the rank.
Because the resume state is bit-exact and a rank's feature rows are
gathered once and never change, a supervised run that loses and respawns a rank converges
**bit-identical** to the unfaulted run (the property
``tests/test_selfhealing.py`` asserts via the result's parameter
checksum).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.errors import ConfigError
from repro.utils.validation import check_int_range, check_positive

_LOG = obs.get_logger("repro.distributed.supervisor")

#: int64 cells in one rank's lease segment.
LEASE_CELLS = 4
#: Beat sequence number — advanced LAST by the heartbeat thread.
LEASE_SEQ = 0
#: Generation (fencing token) of the beating incarnation.
LEASE_GENERATION = 1
#: Highest fully synchronised round (-1 until the first sync).
LEASE_ROUND = 2
#: Process id of the beating incarnation (diagnostics).
LEASE_PID = 3

#: Membership actions a :class:`LeasePolicy` can take on expiry.
EXPIRY_ACTIONS = ("respawn", "evict", "continue")


@dataclass(frozen=True)
class LeasePolicy:
    """Declarative liveness contract between coordinator and workers.

    Attributes
    ----------
    beat_interval_s:
        How often each worker's heartbeat thread re-publishes its lease.
    missed_beats:
        Beats the coordinator tolerates before the lease expires; the
        lease TTL is ``beat_interval_s * missed_beats`` of coordinator
        wall time without an observed sequence change.
    straggler_deadline_s:
        A rank whose lease still beats but whose ``last round`` cell has
        not advanced for this long is treated like an expired lease
        (counted separately as a straggler). Round progress is read from
        the lease cells, so without a lease plane there is no straggler
        verdict.
    on_expiry:
        ``"respawn"`` — kill the incarnation (if still running) and
        relaunch the rank with a bumped generation; ``"evict"`` — kill
        it and renormalise the round average over the survivors (the
        passive behaviour, made explicit); ``"continue"`` — keep
        waiting on a live-but-silent rank, evicting only ranks whose
        process has actually exited.
    max_respawns:
        Respawn budget per rank; once exhausted the rank is evicted
        instead (so a crash-looping shard cannot wedge the run).
    spawn_grace_s:
        Extra wall time granted before the *first* beat of a (re)spawned
        incarnation — interpreter start-up and segment attach happen
        before the heartbeat thread exists.
    """

    beat_interval_s: float = 0.05
    missed_beats: int = 40
    straggler_deadline_s: float = 30.0
    on_expiry: str = "respawn"
    max_respawns: int = 2
    spawn_grace_s: float = 30.0

    def __post_init__(self) -> None:
        check_positive("beat_interval_s", self.beat_interval_s)
        check_int_range("missed_beats", self.missed_beats, 1)
        check_positive("straggler_deadline_s", self.straggler_deadline_s)
        check_int_range("max_respawns", self.max_respawns, 0)
        check_positive("spawn_grace_s", self.spawn_grace_s, strict=False)
        if self.on_expiry not in EXPIRY_ACTIONS:
            raise ConfigError(
                f"on_expiry must be one of {EXPIRY_ACTIONS}, "
                f"got {self.on_expiry!r}"
            )

    @property
    def lease_ttl_s(self) -> float:
        """Coordinator wall time without a beat before the lease expires."""
        return self.beat_interval_s * self.missed_beats


class Supervisor:
    """Coordinator-side membership manager over the lease plane.

    One instance lives for one :meth:`ProcessBackend.run`; the backend
    calls :meth:`poll` whenever its gather or report loop stalls. With
    ``leases=None`` it watches process liveness only. The supervisor
    owns the per-rank generation counters, the respawn budget, and the
    fencing predicate; the backend supplies two callbacks:

    ``relaunch(rank, generation)``
        Wipe the rank's stale control cells, start a fresh worker
        process for ``rank`` carrying ``generation``, and return it.
        Called only after the previous incarnation is confirmed dead,
        so there is never more than one writer per rank's segments.
    ``on_evict(rank, why)``
        Remove the rank from the round barrier and renormalise (the
        backend's ``_mark_dead``).

    The instance doubles as a :class:`repro.obs` stats source
    (``distributed.supervisor``), and every membership transition emits
    ``supervisor.*`` counters/spans through the global registry when
    observability is on.
    """

    def __init__(
        self,
        policy: LeasePolicy,
        n_parts: int,
        *,
        processes: list,
        leases: list | None = None,
        relaunch: Callable[[int, int], object] | None = None,
        on_evict: Callable[[int, str], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not isinstance(policy, LeasePolicy):
            raise ConfigError("Supervisor needs a LeasePolicy")
        check_int_range("n_parts", n_parts, 1)
        self.policy = policy
        self.n_parts = int(n_parts)
        self._processes = processes
        self._leases = leases
        self._relaunch = relaunch
        self._on_evict = on_evict
        self._clock = clock
        now = clock()
        self._last_seq = [
            int(leases[p][LEASE_SEQ]) if leases is not None else 0
            for p in range(n_parts)
        ]
        #: wall time of the last observed beat change (None = none yet)
        self._last_beat: list[float | None] = [None] * n_parts
        self._started = [now] * n_parts
        self._progress_round = [-1] * n_parts
        self._last_progress = [now] * n_parts
        self._gen = [0] * n_parts
        self._respawns_used = [0] * n_parts
        #: rank -> respawn start time, pending until the rejoin lands
        self._respawn_started: dict[int, float] = {}
        self._evicted: set[int] = set()
        self._expired_flagged: set[int] = set()
        self._straggler_flagged: set[int] = set()
        self._fenced_seen: set[tuple[int, int, int]] = set()
        self.recovery_latencies_s: list[float] = []
        self._counters = {
            "respawns": 0,
            "rejoins": 0,
            "evictions": 0,
            "leases_expired": 0,
            "fenced_writes": 0,
            "stragglers": 0,
        }
        obs.register_source("distributed.supervisor", self)

    # ------------------------------------------------------------------ #
    # Lease observation
    # ------------------------------------------------------------------ #

    def generation(self, rank: int) -> int:
        """The current (fencing) generation of ``rank``."""
        return self._gen[rank]

    def beat_age_s(self, rank: int) -> float | None:
        """Seconds since ``rank``'s beat sequence last changed, or
        ``None`` when no beat from the current incarnation was seen."""
        last = self._last_beat[rank]
        return None if last is None else self._clock() - last

    def observe(self) -> None:
        """Fold the current lease cells into the liveness bookkeeping."""
        if self._leases is None:
            return
        now = self._clock()
        for rank in range(self.n_parts):
            if rank in self._evicted:
                continue
            lease = self._leases[rank]
            seq = int(lease[LEASE_SEQ])
            if seq != self._last_seq[rank]:
                self._last_seq[rank] = seq
                self._last_beat[rank] = now
                self._expired_flagged.discard(rank)
            last_round = int(lease[LEASE_ROUND])
            if last_round > self._progress_round[rank]:
                self._progress_round[rank] = last_round
                self._last_progress[rank] = now
                self._straggler_flagged.discard(rank)

    # ------------------------------------------------------------------ #
    # Membership decisions
    # ------------------------------------------------------------------ #

    def poll(self, round_no: int, skip: set | frozenset = frozenset()) -> None:
        """One liveness pass: observe beats, act on deaths and expiries.

        ``skip`` names ranks exempt from membership action (e.g. ranks
        that already delivered their final report and exited cleanly).
        """
        self.observe()
        now = self._clock()
        policy = self.policy
        for rank in range(self.n_parts):
            if rank in self._evicted or rank in skip:
                continue
            proc = self._processes[rank]
            dead = not proc.is_alive()
            expired = False
            if not dead and self._leases is not None:
                last = self._last_beat[rank]
                if last is None:
                    expired = (
                        now - self._started[rank]
                        > policy.spawn_grace_s + policy.lease_ttl_s
                    )
                else:
                    expired = now - last > policy.lease_ttl_s
                if expired and rank not in self._expired_flagged:
                    self._expired_flagged.add(rank)
                    self._counters["leases_expired"] += 1
                    self._emit_counter("supervisor.leases_expired", rank)
                    _LOG.warning(
                        "rank %d lease expired (no beat for > %.2fs)",
                        rank, policy.lease_ttl_s,
                    )
            straggling = (
                self._leases is not None
                and not dead
                and not expired
                and self._progress_round[rank] < round_no - 1
                and now - self._last_progress[rank]
                > policy.straggler_deadline_s
                and rank not in self._straggler_flagged
            )
            if straggling:
                self._straggler_flagged.add(rank)
                self._counters["stragglers"] += 1
                self._emit_counter("supervisor.stragglers", rank)
                _LOG.warning(
                    "rank %d straggling (round %d, no progress for > %.1fs)",
                    rank, self._progress_round[rank],
                    policy.straggler_deadline_s,
                )
            if not (dead or expired or straggling):
                continue
            why = (
                "process died" if dead
                else "lease expired" if expired
                else "straggler deadline"
            )
            action = policy.on_expiry
            if action == "continue" and not dead:
                # Live but silent/slow: renormalising without killing is
                # the round average's job once the rank is evicted — the
                # "continue" contract keeps waiting instead.
                continue
            if (
                action == "respawn"
                and self._relaunch is not None
                and self._respawns_used[rank] < policy.max_respawns
            ):
                self.respawn(rank, why)
            else:
                self.evict(rank, why)

    def respawn(self, rank: int, why: str) -> None:
        """Kill ``rank``'s incarnation, bump its generation, relaunch."""
        with obs.span(
            "supervisor.respawn",
            rank=str(rank), why=why, generation=self._gen[rank] + 1,
        ):
            self._kill(rank)
            self._respawns_used[rank] += 1
            self._gen[rank] += 1
            self._counters["respawns"] += 1
            self._emit_counter("supervisor.respawns", rank)
            self._respawn_started.setdefault(rank, self._clock())
            proc = self._relaunch(rank, self._gen[rank])
            self._processes[rank] = proc
            now = self._clock()
            self._last_beat[rank] = None
            self._started[rank] = now
            self._last_progress[rank] = now
            self._expired_flagged.discard(rank)
            self._straggler_flagged.discard(rank)
            if obs.OBS.enabled:
                obs.OBS.registry.gauge("supervisor.generation").set(
                    float(self._gen[rank]), rank=str(rank)
                )
        _LOG.warning(
            "rank %d respawned (%s) as generation %d [%d/%d]",
            rank, why, self._gen[rank],
            self._respawns_used[rank], self.policy.max_respawns,
        )

    def evict(self, rank: int, why: str) -> None:
        """Remove ``rank`` from the membership; survivors renormalise."""
        with obs.span("supervisor.evict", rank=str(rank), why=why):
            self._kill(rank)
            self._evicted.add(rank)
            self._respawn_started.pop(rank, None)
            self._counters["evictions"] += 1
            self._emit_counter("supervisor.evictions", rank)
            if self._on_evict is not None:
                self._on_evict(rank, why)

    def _kill(self, rank: int) -> None:
        """Confirm the rank's current incarnation is dead (reap it)."""
        proc = self._processes[rank]
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - stuck child
            proc.kill()
            proc.join(timeout=1.0)
        else:
            proc.join(timeout=1.0)

    # ------------------------------------------------------------------ #
    # Fencing
    # ------------------------------------------------------------------ #

    def fence_accepts(self, rank: int, generation: int) -> bool:
        """Whether a contribution stamped ``generation`` is current.

        The fencing predicate of the rejoin protocol: only the rank's
        *current* incarnation may contribute to a round average.
        """
        return int(generation) == self._gen[rank]

    def note_fenced_write(
        self, rank: int, round_no: int, generation: int
    ) -> None:
        """Count one discarded stale-generation publication (deduped per
        ``(rank, round, generation)`` — the gather loop re-scans)."""
        key = (int(rank), int(round_no), int(generation))
        if key in self._fenced_seen:
            return
        self._fenced_seen.add(key)
        self._counters["fenced_writes"] += 1
        self._emit_counter("supervisor.fenced_writes", rank)
        _LOG.warning(
            "fenced stale write from rank %d: round %d stamped "
            "generation %d, current is %d",
            rank, round_no, generation, self._gen[rank],
        )

    def note_rejoin(self, rank: int, round_no: int) -> None:
        """Record that a respawned ``rank``'s contribution was accepted.

        Closes the recovery-latency window opened at respawn; a no-op
        for ranks with no pending respawn.
        """
        started = self._respawn_started.pop(rank, None)
        if started is None:
            return
        latency = self._clock() - started
        self.recovery_latencies_s.append(latency)
        self._counters["rejoins"] += 1
        self._emit_counter("supervisor.rejoins", rank)
        if obs.OBS.enabled:
            obs.OBS.registry.histogram("supervisor.respawn_s").observe(latency)
        _LOG.info(
            "rank %d rejoined at round %d, %.3fs after respawn",
            rank, round_no, latency,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def diagnostics(self) -> list[dict]:
        """Per-rank liveness detail for timeout error messages."""
        self.observe()
        out = []
        for rank in range(self.n_parts):
            proc = self._processes[rank]
            age = self.beat_age_s(rank)
            out.append({
                "rank": rank,
                "alive": bool(proc.is_alive()),
                "evicted": rank in self._evicted,
                "generation": self._gen[rank],
                "respawns": self._respawns_used[rank],
                "last_round": self._progress_round[rank],
                "beat_age_s": age,
            })
        return out

    def _emit_counter(self, name: str, rank: int) -> None:
        if obs.OBS.enabled:
            obs.OBS.registry.counter(name).inc(rank=str(rank))

    def snapshot(self) -> dict[str, float]:
        """Flat counter dict (:class:`repro.obs.StatsSource`)."""
        out = dict(self._counters)
        out["evicted_ranks"] = float(len(self._evicted))
        out["recovery_latency_s_max"] = float(
            max(self.recovery_latencies_s, default=0.0)
        )
        return out

    def reset(self) -> None:
        for key in self._counters:
            self._counters[key] = 0
        self.recovery_latencies_s.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Supervisor(n_parts={self.n_parts}, "
            f"respawns={self._counters['respawns']}, "
            f"evictions={self._counters['evictions']}, "
            f"fenced={self._counters['fenced_writes']})"
        )
