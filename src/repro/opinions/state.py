"""Network states with polar opinions, and time series thereof.

Opinion quantification follows §3 of the paper: user ``i`` has ``+1`` when
holding the positive opinion, ``-1`` for the negative opinion, ``0`` when
neutral (no or unknown opinion). A state is immutable; modification helpers
return new states.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import StateError

__all__ = ["POSITIVE", "NEUTRAL", "NEGATIVE", "NetworkState", "StateSeries"]

POSITIVE: int = 1
NEUTRAL: int = 0
NEGATIVE: int = -1

_VALID_VALUES = frozenset({-1, 0, 1})


class NetworkState:
    """Immutable vector of polar opinions over ``n`` users.

    Examples
    --------
    >>> s = NetworkState([1, 0, -1])
    >>> s.n_active, s.n_positive, s.n_negative
    (2, 1, 1)
    >>> s.positive_histogram().tolist()
    [1.0, 0.0, 0.0]
    """

    __slots__ = ("_values", "_content_key")

    def __init__(self, values: Iterable[int]) -> None:
        arr = np.asarray(values, dtype=np.int8)
        if arr.ndim != 1:
            raise StateError(f"state must be one-dimensional, got shape {arr.shape}")
        bad = ~np.isin(arr, (-1, 0, 1))
        if bad.any():
            first = int(np.flatnonzero(bad)[0])
            raise StateError(
                f"opinion values must be in {{-1, 0, 1}}; "
                f"user {first} has {arr[first]}"
            )
        arr.setflags(write=False)
        self._values = arr
        self._content_key: bytes | None = None

    @classmethod
    def neutral(cls, n: int) -> "NetworkState":
        """All-neutral state over *n* users."""
        return cls(np.zeros(n, dtype=np.int8))

    @classmethod
    def from_active_sets(
        cls, n: int, positive: Sequence[int] = (), negative: Sequence[int] = ()
    ) -> "NetworkState":
        """Build from explicit sets of positive/negative user ids."""
        values = np.zeros(n, dtype=np.int8)
        pos = np.asarray(positive, dtype=np.int64)
        neg = np.asarray(negative, dtype=np.int64)
        if np.intersect1d(pos, neg).size:
            raise StateError("a user cannot be both positive and negative")
        values[pos] = POSITIVE
        values[neg] = NEGATIVE
        return cls(values)

    # ------------------------------------------------------------------ #

    @property
    def values(self) -> np.ndarray:
        """Read-only int8 array of opinions."""
        return self._values

    @property
    def n(self) -> int:
        """Number of users."""
        return self._values.shape[0]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, user: int) -> int:
        return int(self._values[user])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetworkState):
            return NotImplemented
        return np.array_equal(self._values, other._values)

    def __hash__(self) -> int:
        return hash(self._values.tobytes())

    def content_key(self) -> bytes:
        """32-byte SHA-256 digest of the opinion bytes, computed once: the
        key of every SND cache (equal opinions => equal key)."""
        if self._content_key is None:
            self._content_key = hashlib.sha256(self._values.tobytes()).digest()
        return self._content_key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkState(n={self.n}, +{self.n_positive}, "
            f"-{self.n_negative}, 0:{self.n - self.n_active})"
        )

    # ------------------------------------------------------------------ #
    # Masks, counts, histograms
    # ------------------------------------------------------------------ #

    @property
    def active_mask(self) -> np.ndarray:
        """Boolean mask of users expressing an opinion."""
        return self._values != NEUTRAL

    @property
    def n_active(self) -> int:
        return int(np.count_nonzero(self._values))

    @property
    def n_positive(self) -> int:
        return int(np.count_nonzero(self._values == POSITIVE))

    @property
    def n_negative(self) -> int:
        return int(np.count_nonzero(self._values == NEGATIVE))

    def active_users(self) -> np.ndarray:
        """Ids of users expressing any opinion."""
        return np.flatnonzero(self._values)

    def users_with(self, opinion: int) -> np.ndarray:
        """Ids of users holding exactly *opinion*."""
        if opinion not in _VALID_VALUES:
            raise StateError(f"opinion must be in {{-1, 0, 1}}, got {opinion}")
        return np.flatnonzero(self._values == opinion)

    def positive_histogram(self) -> np.ndarray:
        """``G+`` of §3: unit mass at positive users, zero elsewhere
        (negative users are treated as neutral)."""
        return (self._values == POSITIVE).astype(np.float64)

    def negative_histogram(self) -> np.ndarray:
        """``G-`` of §3: unit mass at negative users, zero elsewhere."""
        return (self._values == NEGATIVE).astype(np.float64)

    def histogram(self, opinion: int) -> np.ndarray:
        """Histogram for ``opinion`` (+1 or -1)."""
        if opinion == POSITIVE:
            return self.positive_histogram()
        if opinion == NEGATIVE:
            return self.negative_histogram()
        raise StateError(f"histogram is defined for opinions +1/-1, got {opinion}")

    # ------------------------------------------------------------------ #
    # Comparison and modification
    # ------------------------------------------------------------------ #

    def changed_users(self, other: "NetworkState") -> np.ndarray:
        """Ids of users whose opinion differs between the two states
        (``n∆`` of Assumption 1)."""
        self._check_compatible(other)
        return np.flatnonzero(self._values != other._values)

    def n_delta(self, other: "NetworkState") -> int:
        """``n∆``: the number of changed users."""
        return int(self.changed_users(other).shape[0])

    def with_opinions(self, users: Sequence[int], opinions) -> "NetworkState":
        """New state with *users* reassigned to *opinions* (scalar or array)."""
        values = self._values.copy()
        values.setflags(write=True)
        values[np.asarray(users, dtype=np.int64)] = opinions
        return NetworkState(values)

    def with_neutralized(self, users: Sequence[int]) -> "NetworkState":
        """New state with *users* forced neutral (used to hide opinions in
        the §6.3 prediction experiments)."""
        return self.with_opinions(users, NEUTRAL)

    def _check_compatible(self, other: "NetworkState") -> None:
        if self.n != other.n:
            raise StateError(
                f"states are over different user sets ({self.n} vs {other.n})"
            )


class StateSeries:
    """A time-ordered sequence of :class:`NetworkState` over one user set.

    Supports integer indexing, slicing (returns a new series), and optional
    per-state labels (used for ground-truth anomaly flags and quarter names).
    """

    def __init__(
        self,
        states: Sequence[NetworkState],
        *,
        labels: Sequence[str] | None = None,
    ) -> None:
        states = list(states)
        if not states:
            raise StateError("a series needs at least one state")
        n = states[0].n
        for k, s in enumerate(states):
            if not isinstance(s, NetworkState):
                raise StateError(f"element {k} is not a NetworkState")
            if s.n != n:
                raise StateError(
                    f"state {k} has {s.n} users, expected {n}"
                )
        if labels is not None and len(labels) != len(states):
            raise StateError(
                f"got {len(labels)} labels for {len(states)} states"
            )
        self._states = states
        self.labels = list(labels) if labels is not None else None

    @property
    def n_users(self) -> int:
        return self._states[0].n

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterator[NetworkState]:
        return iter(self._states)

    def __getitem__(self, index):
        if isinstance(index, slice):
            labels = self.labels[index] if self.labels is not None else None
            return StateSeries(self._states[index], labels=labels)
        return self._states[index]

    def to_matrix(self) -> np.ndarray:
        """Stack into a ``(T, n)`` int8 matrix (rows are states)."""
        return np.vstack([s.values for s in self._states])

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, **kwargs) -> "StateSeries":
        """Inverse of :meth:`to_matrix`."""
        matrix = np.asarray(matrix)
        return cls([NetworkState(row) for row in matrix], **kwargs)

    def transitions(self) -> Iterator[tuple[NetworkState, NetworkState]]:
        """Iterate over adjacent state pairs ``(G_t, G_{t+1})``."""
        return zip(self._states, self._states[1:])

    def activation_counts(self) -> np.ndarray:
        """Number of active users per state (used to normalise distances)."""
        return np.array([s.n_active for s in self._states], dtype=np.int64)
