"""k-pole network states and time series thereof.

The paper models exactly two polar opinions (§3); this module generalises
the state space to ``k >= 2`` mutually exclusive *poles*. User ``i`` holds
pole ``p ∈ {1, ..., k}`` or is neutral (``0``). Pole labels are ordinal
only — no pole is "closer" to another; the pairwise-pole ground costs in
:mod:`repro.multipolar.snd` treat every competing pole as equally adverse.

At ``k = 2`` the state space is isomorphic to the bipolar one: pole ``1``
maps onto the positive opinion (``+1``) and pole ``2`` onto the negative
(``-1``) — :meth:`MultipolarState.from_bipolar` / :meth:`to_bipolar`
convert losslessly, and the k-pole SND built on this mapping reduces
bit-identically to the bipolar Eq. 3 pipeline.

Content fingerprints are byte-stable: :attr:`MultipolarState.values` is a
read-only ``int8`` array, so ``state.values.tobytes()`` — whose SHA-256
digest (:meth:`MultipolarState.content_key`) keys
:class:`~repro.snd.cache.GroundCostCache` / ``TransitionCache`` — works on
multipolar states unchanged.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import StateError
from repro.opinions.state import NEGATIVE, NEUTRAL, POSITIVE, NetworkState, StateSeries

__all__ = ["POLE_NEUTRAL", "MultipolarState", "MultipolarSeries"]

POLE_NEUTRAL: int = 0

#: int8 bounds the pole count; far beyond any sensible regime.
MAX_POLES: int = 127


class MultipolarState:
    """Immutable vector of k-pole opinions over ``n`` users.

    Examples
    --------
    >>> s = MultipolarState([1, 0, 3, 2], n_poles=3)
    >>> s.n_active, s.pole_counts().tolist()
    (3, [1, 1, 1])
    >>> s.histogram(3).tolist()
    [0.0, 0.0, 1.0, 0.0]
    """

    __slots__ = ("_values", "_n_poles", "_projections", "_content_key")

    def __init__(self, values: Iterable[int], *, n_poles: int) -> None:
        if not isinstance(n_poles, (int, np.integer)) or not 2 <= n_poles <= MAX_POLES:
            raise StateError(
                f"n_poles must be an integer in [2, {MAX_POLES}], got {n_poles!r}"
            )
        arr = np.asarray(values, dtype=np.int8)
        if arr.ndim != 1:
            raise StateError(f"state must be one-dimensional, got shape {arr.shape}")
        bad = (arr < 0) | (arr > n_poles)
        if bad.any():
            first = int(np.flatnonzero(bad)[0])
            raise StateError(
                f"pole values must be in {{0, ..., {n_poles}}}; "
                f"user {first} has {arr[first]}"
            )
        arr.setflags(write=False)
        self._values = arr
        self._n_poles = int(n_poles)
        self._projections: dict[int, NetworkState] = {}
        self._content_key: bytes | None = None

    @classmethod
    def neutral(cls, n: int, *, n_poles: int) -> "MultipolarState":
        """All-neutral state over *n* users."""
        return cls(np.zeros(n, dtype=np.int8), n_poles=n_poles)

    @classmethod
    def from_pole_sets(
        cls, n: int, pole_sets: Sequence[Sequence[int]], *, n_poles: int | None = None
    ) -> "MultipolarState":
        """Build from explicit per-pole user-id sets (``pole_sets[p-1]``
        holds pole ``p``'s adopters)."""
        if n_poles is None:
            n_poles = len(pole_sets)
        if len(pole_sets) > n_poles:
            raise StateError(
                f"got {len(pole_sets)} pole sets for {n_poles} poles"
            )
        values = np.zeros(n, dtype=np.int8)
        seen = np.zeros(n, dtype=bool)
        for pole_minus_one, users in enumerate(pole_sets):
            ids = np.asarray(users, dtype=np.int64)
            if seen[ids].any():
                raise StateError("a user cannot hold two poles at once")
            seen[ids] = True
            values[ids] = pole_minus_one + 1
        return cls(values, n_poles=n_poles)

    @classmethod
    def from_bipolar(cls, state: NetworkState) -> "MultipolarState":
        """Lossless embedding of a bipolar state: ``+1 -> pole 1``,
        ``-1 -> pole 2``, neutral stays neutral."""
        values = np.zeros(state.n, dtype=np.int8)
        values[state.values == POSITIVE] = 1
        values[state.values == NEGATIVE] = 2
        return cls(values, n_poles=2)

    def to_bipolar(self) -> NetworkState:
        """Inverse of :meth:`from_bipolar` (``k = 2`` states only)."""
        if self._n_poles != 2:
            raise StateError(
                f"only k=2 states convert to bipolar, this one has k={self._n_poles}"
            )
        return self.polar_projection(1)

    # ------------------------------------------------------------------ #

    @property
    def values(self) -> np.ndarray:
        """Read-only int8 array of pole assignments (0 = neutral)."""
        return self._values

    @property
    def n(self) -> int:
        """Number of users."""
        return self._values.shape[0]

    @property
    def n_poles(self) -> int:
        """Number of poles ``k``."""
        return self._n_poles

    @property
    def poles(self) -> range:
        """The valid pole labels ``1 ... k``."""
        return range(1, self._n_poles + 1)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, user: int) -> int:
        return int(self._values[user])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultipolarState):
            return NotImplemented
        return self._n_poles == other._n_poles and np.array_equal(
            self._values, other._values
        )

    def __hash__(self) -> int:
        return hash((self._n_poles, self._values.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = ", ".join(
            f"p{p}:{c}" for p, c in zip(self.poles, self.pole_counts())
        )
        return f"MultipolarState(n={self.n}, k={self._n_poles}, {counts})"

    def fingerprint(self) -> bytes:
        """Byte-stable content bytes (equal assignments => equal
        fingerprint); :meth:`content_key` is their digest."""
        return self._values.tobytes()

    def content_key(self) -> bytes:
        """32-byte SHA-256 digest of :meth:`fingerprint`, computed once: the
        key :class:`~repro.snd.cache.GroundCostCache` derives."""
        if self._content_key is None:
            self._content_key = hashlib.sha256(self._values.tobytes()).digest()
        return self._content_key

    # ------------------------------------------------------------------ #
    # Masks, counts, histograms
    # ------------------------------------------------------------------ #

    @property
    def active_mask(self) -> np.ndarray:
        """Boolean mask of users holding any pole."""
        return self._values != POLE_NEUTRAL

    @property
    def n_active(self) -> int:
        return int(np.count_nonzero(self._values))

    def active_users(self) -> np.ndarray:
        """Ids of users holding any pole."""
        return np.flatnonzero(self._values)

    def users_with(self, pole: int) -> np.ndarray:
        """Ids of users holding exactly *pole*."""
        self._check_pole(pole)
        return np.flatnonzero(self._values == pole)

    def pole_counts(self) -> np.ndarray:
        """``(k,)`` int64 vector of adopter counts per pole."""
        return np.bincount(
            self._values, minlength=self._n_poles + 1
        )[1:].astype(np.int64)

    def histogram(self, pole: int) -> np.ndarray:
        """Unit-mass indicator of *pole*'s adopters (the §3 histogram with
        every competing pole treated as neutral)."""
        self._check_pole(pole)
        return (self._values == pole).astype(np.float64)

    def polar_projection(self, pole: int) -> NetworkState:
        """One-vs-rest collapse onto the bipolar state space.

        Users holding *pole* become positive, users holding any *other*
        pole become negative, neutral users stay neutral. This is the
        bridge to the bipolar Eq. 2/Eq. 3 machinery: the projected state's
        positive histogram is exactly :meth:`histogram`, and the ground
        distance built from it treats every competing pole as adverse. At
        ``k = 2``, the pole-1 projection is the identity embedding and the
        pole-2 projection is its sign flip, which is what makes the k-pole
        SND reduce bit-identically to the bipolar one.

        Projections are memoised per pole (states are immutable).
        """
        self._check_pole(pole)
        cached = self._projections.get(pole)
        if cached is not None:
            return cached
        values = self._values
        proj = np.zeros(values.shape[0], dtype=np.int8)
        proj[values == pole] = POSITIVE
        proj[(values != pole) & (values != POLE_NEUTRAL)] = NEGATIVE
        state = NetworkState(proj)
        self._projections[pole] = state
        return state

    # ------------------------------------------------------------------ #
    # Comparison and modification
    # ------------------------------------------------------------------ #

    def changed_users(self, other: "MultipolarState") -> np.ndarray:
        """Ids of users whose pole differs between the two states."""
        self._check_compatible(other)
        return np.flatnonzero(self._values != other._values)

    def n_delta(self, other: "MultipolarState") -> int:
        """Number of changed users (the k-pole ``n∆``)."""
        return int(self.changed_users(other).shape[0])

    def with_opinions(self, users: Sequence[int], poles) -> "MultipolarState":
        """New state with *users* reassigned to *poles* (scalar or array)."""
        values = self._values.copy()
        values.setflags(write=True)
        values[np.asarray(users, dtype=np.int64)] = poles
        return MultipolarState(values, n_poles=self._n_poles)

    def with_neutralized(self, users: Sequence[int]) -> "MultipolarState":
        """New state with *users* forced neutral (prediction experiments
        hide opinions this way)."""
        return self.with_opinions(users, POLE_NEUTRAL)

    def _check_pole(self, pole: int) -> None:
        if not 1 <= pole <= self._n_poles:
            raise StateError(
                f"pole must be in {{1, ..., {self._n_poles}}}, got {pole}"
            )

    def _check_compatible(self, other: "MultipolarState") -> None:
        if self.n != other.n:
            raise StateError(
                f"states are over different user sets ({self.n} vs {other.n})"
            )
        if self._n_poles != other._n_poles:
            raise StateError(
                f"states have different pole counts "
                f"({self._n_poles} vs {other._n_poles})"
            )


class MultipolarSeries:
    """A time-ordered sequence of :class:`MultipolarState` over one user set.

    The k-pole sibling of :class:`~repro.opinions.state.StateSeries`:
    integer indexing, slicing (returns a new series), optional per-state
    labels (ground-truth anomaly flags).
    """

    def __init__(
        self,
        states: Sequence[MultipolarState],
        *,
        labels: Sequence[str] | None = None,
    ) -> None:
        states = list(states)
        if not states:
            raise StateError("a series needs at least one state")
        n, k = states[0].n, states[0].n_poles
        for t, s in enumerate(states):
            if not isinstance(s, MultipolarState):
                raise StateError(f"element {t} is not a MultipolarState")
            if s.n != n:
                raise StateError(f"state {t} has {s.n} users, expected {n}")
            if s.n_poles != k:
                raise StateError(
                    f"state {t} has {s.n_poles} poles, expected {k}"
                )
        if labels is not None and len(labels) != len(states):
            raise StateError(f"got {len(labels)} labels for {len(states)} states")
        self._states = states
        self.labels = list(labels) if labels is not None else None

    @classmethod
    def from_bipolar(cls, series: StateSeries) -> "MultipolarSeries":
        """Embed a bipolar series state-by-state (labels preserved)."""
        return cls(
            [MultipolarState.from_bipolar(s) for s in series],
            labels=series.labels,
        )

    def to_bipolar(self) -> StateSeries:
        """Collapse a ``k = 2`` series back to bipolar (labels preserved)."""
        return StateSeries(
            [s.to_bipolar() for s in self._states], labels=self.labels
        )

    @property
    def n_users(self) -> int:
        return self._states[0].n

    @property
    def n_poles(self) -> int:
        return self._states[0].n_poles

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterator[MultipolarState]:
        return iter(self._states)

    def __getitem__(self, index):
        if isinstance(index, slice):
            labels = self.labels[index] if self.labels is not None else None
            return MultipolarSeries(self._states[index], labels=labels)
        return self._states[index]

    def to_matrix(self) -> np.ndarray:
        """Stack into a ``(T, n)`` int8 matrix (rows are states)."""
        return np.vstack([s.values for s in self._states])

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, *, n_poles: int, **kwargs) -> "MultipolarSeries":
        """Inverse of :meth:`to_matrix`."""
        matrix = np.asarray(matrix)
        return cls(
            [MultipolarState(row, n_poles=n_poles) for row in matrix], **kwargs
        )

    def transitions(self) -> Iterator[tuple[MultipolarState, MultipolarState]]:
        """Iterate over adjacent state pairs ``(G_t, G_{t+1})``."""
        return zip(self._states, self._states[1:])

    def activation_counts(self) -> np.ndarray:
        """Number of active users per state (used to normalise distances)."""
        return np.array([s.n_active for s in self._states], dtype=np.int64)
