"""Vectorized per-copy loss draws for the array engine.

Mirrors the declarative ``(kind, params)`` specs of
:mod:`repro.sim.loss`, but produces *delivered* masks for whole batches
of copies in one call.  The array engine owns its draw order (documented
in the engine module): it consumes a dedicated named stream
(``stream("array", "loss")``) under the same
:class:`~repro.util.rng.RngFactory` discipline as every other consumer,
so array runs replay bit-exactly from the scenario seed without
perturbing the event engine's streams.

Kinds:

- ``perfect`` -- everything delivered, no stream consumption;
- ``bernoulli`` -- iid loss with probability ``p`` (the ``p in {0, 1}``
  shortcuts consume no randomness, like the scalar model);
- ``bounded`` -- Bernoulli until ``budget`` copies have been dropped
  over the whole run, then perfect.  The budget is spent in flat draw
  order, which is deterministic because the engine's draw sequence is;
- ``distance`` -- loss probability rising with link distance (callers
  pass per-copy distances);
- ``gilbert`` -- bursty loss via per-directed-link two-state Markov
  chains (Good/Bad), the vectorized twin of
  :class:`repro.sim.loss.GilbertElliottLoss` with the same parameter
  names and defaults as ``build_loss_model`` (p_good, p_bad, p_gb,
  p_bg).

Gilbert chain contract (engine-private, like the draw order itself):

- chain state lives in named *families* of boolean arrays (True = Bad),
  one entry per directed link the engine models: ``"mc"`` member ->
  own-CH, ``"cm"`` own-CH -> member, ``"mm"`` member -> clustermate,
  ``"over"`` source-CH -> gateway overhear, ``"rep"`` gateway ->
  destination-CH report, and ``"fm"`` the per-edge formation family
  (one entry per directed unit-disk edge, see
  :mod:`repro.sim.array_engine.formation`).  Draw sites that reuse a
  physical link reuse its family entry (heartbeats, digests, updates,
  peer traffic, relays all ride the same ``mc``/``cm``/``mm`` chains);
- every draw advances the chain exactly once per copy, in the scalar
  model's order: transition first (Good->Bad with ``p_gb``, Bad->Good
  with ``p_bg``), then the loss draw in the *new* state -- two uniforms
  per active copy;
- only active copies advance their chain or consume the stream,
  mirroring the event medium where absent links and crashed senders
  produce no transmissions;
- attempt ladders (:meth:`ArrayLossDraw.ladder`, the one ladder
  primitive) advance one link's chain sequentially, once per attempt --
  retries on a bursty link are correlated, which is the entire point of
  the model.

Small-draw primitives, for callers that draw many tiny batches (the
inter-cluster fixpoint): :meth:`ArrayLossDraw.ladder` (``attempts``
sequential copies on one link; returns the delivered count) and
:meth:`ArrayLossDraw.broadcast` (one copy per listed link; returns the
delivered mask) take per-copy loss probabilities precomputed by
:meth:`ArrayLossDraw.link_loss`.  ``broadcast`` consumes the stream,
the bounded budget and the chains exactly as :meth:`draw_into` over
the same active links; for the stateless kinds, ``ladder(n, p, ...)``
consumes them exactly as ``delivered(n, distances=np.full(n, d))``.

All chains start in the Good state, like the scalar model's fresh
per-link dictionary.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.util.validation import check_probability

#: Loss kinds the array engine can batch.
ARRAY_LOSS_KINDS = ("perfect", "bernoulli", "bounded", "distance", "gilbert")


class ArrayLossDraw:
    """Batched delivered-mask source for one run (see module docstring)."""

    def __init__(
        self,
        kind: str,
        params,
        loss_probability: float,
        transmission_range: float,
        rng: np.random.Generator,
    ) -> None:
        if kind not in ARRAY_LOSS_KINDS:
            raise ExperimentError(
                f"array engine supports loss kinds {ARRAY_LOSS_KINDS}, "
                f"got {kind!r}"
            )
        kwargs = dict(params or {})
        self.kind = kind
        self.rng = rng
        self.p = float(kwargs.pop("p", loss_probability))
        self.budget_left = int(kwargs.pop("budget", 3)) if kind == "bounded" else 0
        self.transmission_range = float(transmission_range)
        self.p_near = float(kwargs.pop("p_near", 0.02))
        self.p_far = float(kwargs.pop("p_far", 0.4))
        self.exponent = float(kwargs.pop("exponent", 2.0))
        # Gilbert-Elliott parameters: same names and defaults as
        # repro.sim.loss.build_loss_model's gilbert branch.
        if kind == "gilbert":
            self.p_good = check_probability(
                "p_good", float(kwargs.pop("p_good", 0.01))
            )
            self.p_bad = check_probability(
                "p_bad", float(kwargs.pop("p_bad", 0.8))
            )
            self.p_gb = check_probability(
                "p_gb", float(kwargs.pop("p_gb", 0.05))
            )
            self.p_bg = check_probability(
                "p_bg", float(kwargs.pop("p_bg", 0.3))
            )
            if self.p_gb + self.p_bg == 0:
                raise ExperimentError(
                    "p_gb + p_bg must be > 0 for an ergodic chain"
                )
        #: Per-family Markov state arrays, True = Bad (gilbert only).
        self._chains: Dict[str, np.ndarray] = {}
        #: Copy accounting for :class:`~repro.metrics.collectors.MessageCounts`.
        self.attempted = 0
        self.delivered_count = 0

    @property
    def stationary_loss_rate(self) -> float:
        """Long-run average loss probability of the gilbert chain."""
        if self.kind != "gilbert":
            raise ExperimentError(
                "stationary_loss_rate is only defined for gilbert loss"
            )
        pi_bad = self.p_gb / (self.p_gb + self.p_bg)
        return (1 - pi_bad) * self.p_good + pi_bad * self.p_bad

    # ------------------------------------------------------------------
    # Gilbert chain state
    # ------------------------------------------------------------------
    def ensure_chain(self, name: str, shape: Tuple[int, ...]) -> None:
        """Pre-create a chain family (no-op for stateless kinds)."""
        if self.kind == "gilbert" and name not in self._chains:
            self._chains[name] = np.zeros(shape, dtype=bool)

    def _chain_view(self, chain: Optional[str], at, shape) -> np.ndarray:
        """The (gathered) state array for a draw site, creating lazily."""
        if chain is None:
            raise ExperimentError(
                "gilbert draws require a chain family name (engine bug)"
            )
        state = self._chains.get(chain)
        if state is None:
            if at is not None:
                raise ExperimentError(
                    f"chain family {chain!r} indexed before creation "
                    "(engine bug)"
                )
            state = np.zeros(shape, dtype=bool)
            self._chains[chain] = state
        return state

    def _gilbert_flat(self, n: int, states: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Advance ``n`` link chains one step and draw their losses.

        ``states`` is a flat boolean array (True = Bad) of the active
        links; returns ``(new_states, lost)``.  Transition first, then
        the loss draw in the new state -- the scalar model's order.
        """
        u = self.rng.random(n)
        toggle = u < np.where(states, self.p_bg, self.p_gb)
        new_states = states ^ toggle
        u2 = self.rng.random(n)
        lost = u2 < np.where(new_states, self.p_bad, self.p_good)
        return new_states, lost

    # ------------------------------------------------------------------
    def link_loss(self, distances: np.ndarray) -> np.ndarray:
        """Per-copy loss probability of copies sent over ``distances``.

        ``distance`` maps each distance through its falloff; the other
        kinds give a read-only broadcast of their constant ``p`` (0 for
        ``perfect``; ``gilbert`` loss depends on chain state, not
        distance, so :meth:`ladder`/:meth:`broadcast` ignore its zeros).
        """
        distances = np.asarray(distances, dtype=np.float64)
        if self.kind == "distance":
            frac = np.clip(distances / self.transmission_range, 0.0, 1.0)
            return np.clip(
                self.p_near + (self.p_far - self.p_near) * frac ** self.exponent,
                0.0,
                1.0,
            )
        p = self.p if self.kind in ("bernoulli", "bounded") else 0.0
        return np.broadcast_to(p, distances.shape)

    def _bounded_spend(self, lost: int) -> int:
        """Drops the bounded adversary can still afford out of ``lost``."""
        spent = min(lost, self.budget_left)
        self.budget_left -= spent
        return spent

    def ladder(self, attempts: int, p: float, chain: str, at) -> int:
        """Copies delivered among ``attempts`` sequential sends on one link.

        ``p`` is the link's per-copy loss probability from
        :meth:`link_loss`; ``chain``/``at`` name its gilbert cell, which
        advances once per attempt (transition, then loss, two uniforms
        each).  One read of the stream, no per-attempt arrays.
        """
        kind = self.kind
        self.attempted += attempts
        if kind == "perfect":
            ok = attempts
        elif kind == "gilbert":
            state = self._chain_view(chain, at, ())
            bad = bool(state[at])
            ok = 0
            u = self.rng.random(2 * attempts).tolist()
            for i in range(0, 2 * attempts, 2):
                if u[i] < (self.p_bg if bad else self.p_gb):
                    bad = not bad
                if u[i + 1] >= (self.p_bad if bad else self.p_good):
                    ok += 1
            state[at] = bad
        elif kind == "distance":
            ok = 0
            for u in self.rng.random(attempts).tolist():
                if u >= p:
                    ok += 1
        elif self.p == 0.0 or (kind == "bounded" and self.budget_left <= 0):
            ok = attempts
        else:
            p = self.p
            lost = attempts
            if p != 1.0:
                lost = 0
                for u in self.rng.random(attempts).tolist():
                    if u < p:
                        lost += 1
            if kind == "bounded":
                lost = self._bounded_spend(lost)
            ok = attempts - lost
        self.delivered_count += ok
        return ok

    def broadcast(
        self, p: np.ndarray, chain: Optional[str] = None, at=None
    ) -> np.ndarray:
        """Delivered mask for one copy per link, ``len(p)`` links.

        ``p`` holds the per-copy loss probabilities from
        :meth:`link_loss`; for ``gilbert``, ``chain``/``at`` gather the
        links' cells (advanced once each, then scattered back).  Same
        stream, budget and chain consumption as :meth:`draw_into` over
        the same active links.
        """
        count = int(p.size)
        if count == 0:
            return np.zeros(0, dtype=bool)
        self.attempted += count
        kind = self.kind
        if kind == "perfect":
            out = np.ones(count, dtype=bool)
        elif kind == "gilbert":
            state = self._chain_view(chain, at, ())
            new_states, lost = self._gilbert_flat(count, state[at])
            state[at] = new_states
            out = ~lost
        elif kind == "distance":
            out = self.rng.random(count) >= p
        elif self.p == 0.0 or (kind == "bounded" and self.budget_left <= 0):
            out = np.ones(count, dtype=bool)
        elif self.p == 1.0:
            out = np.zeros(count, dtype=bool)
        else:
            out = self.rng.random(count) >= self.p
        if kind == "bounded" and self.p != 0.0:
            # Spend the budget in flat draw order; later losses revert
            # to deliveries once the adversary is out of drops.
            idx = np.flatnonzero(~out)
            out[idx[self._bounded_spend(int(idx.size)):]] = True
        self.delivered_count += int(np.count_nonzero(out))
        return out

    def delivered(
        self, count: int, distances: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """A delivered mask for ``count`` independent copies (True = arrives).

        Stateless kinds only: ``gilbert`` copies ride a link's chain, so
        they go through :meth:`draw_into`, :meth:`broadcast` or
        :meth:`ladder`.
        """
        if self.kind == "gilbert":
            raise ExperimentError(
                "gilbert draws need a chain cell: use draw_into, broadcast "
                "or ladder (engine bug)"
            )
        if count <= 0:
            return np.zeros(0, dtype=bool)
        if self.kind != "distance":
            distances = np.broadcast_to(0.0, (count,))
        elif distances is None:
            raise ExperimentError(
                "distance loss draws require per-copy distances"
            )
        return self.broadcast(self.link_loss(distances))

    def draw_into(
        self,
        active: np.ndarray,
        distances: Optional[np.ndarray] = None,
        chain: Optional[str] = None,
        at=None,
    ) -> np.ndarray:
        """Delivered mask shaped like ``active``; False wherever inactive.

        Only active copies consume the stream (and, for ``bounded``, the
        budget; for ``gilbert``, their link's chain step), mirroring the
        event medium where crashed senders and absent links produce no
        transmissions at all.  ``chain`` names the gilbert state family
        (position in ``active`` identifies the directed link); ``at``
        optionally indexes into a larger family so a draw site can
        address a slice of it (e.g. one cluster's CH -> member row).
        """
        if self.kind == "gilbert":
            out = np.zeros(active.shape, dtype=bool)
            flat = np.flatnonzero(active)
            if flat.size:
                self.attempted += int(flat.size)
                state = self._chain_view(chain, at, active.shape)
                # Gather-copy under ``at`` (advanced indexing may not
                # yield a writable view), mutate, scatter back.
                gathered = state[at].copy() if at is not None else state
                s = gathered.ravel()[flat].copy()
                s, lost = self._gilbert_flat(int(flat.size), s)
                gathered.ravel()[flat] = s
                if at is not None:
                    state[at] = gathered
                out.ravel()[flat] = ~lost
                self.delivered_count += int((~lost).sum())
            return out
        out = np.zeros(active.shape, dtype=bool)
        flat = np.flatnonzero(active)
        if flat.size:
            d = None
            if distances is not None:
                d = np.asarray(distances).ravel()[flat]
            out.ravel()[flat] = self.delivered(int(flat.size), distances=d)
        return out
