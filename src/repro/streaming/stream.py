"""Streams of main and auxiliary tokens (Section 3).

A partial-pass streaming algorithm reads a stream of *main tokens*, each of
which summarises a chunk of *auxiliary tokens*.  The algorithm may request
the auxiliary tokens of the last-read main token with ``GET-AUX``, but only a
bounded number of times (``B_aux``), and it may not revisit earlier parts of
the stream.  The :class:`Stream` object enforces exactly this interface so
that an algorithm implemented against it is a partial-pass streaming
algorithm by construction: any violation of the access discipline raises
:class:`StreamBudgetError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence


class StreamBudgetError(RuntimeError):
    """Raised when an algorithm violates the partial-pass access discipline."""


@dataclass(frozen=True)
class MainToken:
    """One main token and the auxiliary tokens it summarises.

    Attributes:
        index: position of the token in the stream (0-based).
        owner: identifier of the vertex that produced / holds the token.
        summary: the coarse-grained data of the main token itself.
        auxiliary: the fine-grained auxiliary tokens it summarises.
    """

    index: int
    owner: int
    summary: Any
    auxiliary: tuple[Any, ...] = ()

    @property
    def num_auxiliary(self) -> int:
        return len(self.auxiliary)


@dataclass
class StreamAccessLog:
    """Record of how a stream was accessed (used for cost accounting)."""

    main_reads: int = 0
    auxiliary_reads: int = 0
    get_aux_calls: int = 0
    writes: int = 0
    get_aux_owners: list[int] = field(default_factory=list)
    writes_between_reads: list[int] = field(default_factory=list)
    write_contexts: list[tuple[int, bool]] = field(default_factory=list)
    _writes_since_last_main_read: int = 0
    _max_writes_between_reads: int = 0

    def note_main_read(self) -> None:
        self.main_reads += 1
        self.writes_between_reads.append(self._writes_since_last_main_read)
        self._writes_since_last_main_read = 0

    def note_write(self) -> None:
        self.writes += 1
        self._writes_since_last_main_read += 1
        self._max_writes_between_reads = max(
            self._max_writes_between_reads, self._writes_since_last_main_read
        )

    def max_writes_between_reads(self) -> int:
        """Most writes between two main-token reads so far, the open stretch included."""
        return self._max_writes_between_reads


class Stream:
    """The input stream ``S`` seen by a partial-pass streaming algorithm.

    The stream exposes the three operations of the paper's definition:

    * ``read()`` -- return the next token (main, or auxiliary after a
      ``get_aux()``); returns ``None`` at end of stream.
    * ``get_aux()`` -- prepend the auxiliary tokens of the last read main
      token; may be called at most ``b_aux`` times in total.
    * ``write(token)`` -- append a token to the output stream; at most
      ``b_write`` writes may happen between reads of consecutive main tokens.
    """

    def __init__(
        self,
        tokens: Sequence[MainToken],
        b_aux: int | None = None,
        b_write: int | None = None,
    ):
        self._tokens = list(tokens)
        for expected, token in enumerate(self._tokens):
            if token.index != expected:
                raise ValueError(
                    f"main tokens must be numbered consecutively; "
                    f"found index {token.index} at position {expected}"
                )
        self.b_aux = b_aux
        self.b_write = b_write
        self.output: list[Any] = []
        self.log = StreamAccessLog()
        self._position = 0
        self._pending_aux: list[Any] = []
        self._last_main: MainToken | None = None
        self._aux_requested_for_last = False

    # -- the three operations -------------------------------------------------

    def read(self) -> Any:
        """READ: the next token of the stream, or ``None`` when exhausted."""
        if self._pending_aux:
            self.log.auxiliary_reads += 1
            return self._pending_aux.pop(0)
        if self._position >= len(self._tokens):
            return None
        token = self._tokens[self._position]
        self._position += 1
        self._last_main = token
        self._aux_requested_for_last = False
        self.log.note_main_read()
        if self.b_write is not None and self.log.max_writes_between_reads() > self.b_write:
            raise StreamBudgetError(
                f"more than B_write={self.b_write} WRITE operations between "
                f"consecutive main-token reads"
            )
        return token

    def get_aux(self) -> None:
        """GET-AUX: queue the auxiliary tokens of the last-read main token."""
        if self._last_main is None:
            raise StreamBudgetError("GET-AUX before any main token was read")
        if self._aux_requested_for_last:
            raise StreamBudgetError("GET-AUX called twice for the same main token")
        self.log.get_aux_calls += 1
        if self.b_aux is not None and self.log.get_aux_calls > self.b_aux:
            raise StreamBudgetError(
                f"more than B_aux={self.b_aux} GET-AUX operations performed"
            )
        self._aux_requested_for_last = True
        self.log.get_aux_owners.append(self._last_main.owner)
        self._pending_aux = list(self._last_main.auxiliary)

    def write(self, token: Any) -> None:
        """WRITE: append a token to the output stream ``R``."""
        last_index = self._last_main.index if self._last_main is not None else -1
        in_aux_excursion = bool(self._pending_aux) or (
            self._aux_requested_for_last and self._pending_aux == []
            and self.log.auxiliary_reads > 0
        )
        self.log.write_contexts.append((last_index, in_aux_excursion))
        self.log.note_write()
        if self.b_write is not None and self.log.max_writes_between_reads() > self.b_write:
            raise StreamBudgetError(
                f"more than B_write={self.b_write} WRITE operations between "
                f"consecutive main-token reads"
            )
        self.output.append(token)

    # -- inspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tokens)

    def __iter__(self) -> Iterator[MainToken]:
        return iter(self._tokens)

    @property
    def exhausted(self) -> bool:
        return self._position >= len(self._tokens) and not self._pending_aux

    @property
    def tokens(self) -> list[MainToken]:
        return list(self._tokens)
