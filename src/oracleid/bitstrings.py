"""Bit strings, concept classes, and class generators.

Conventions used across the package:

* Bit positions are 0-based in code.  Disagreement *ranks* reported in run
  traces are 1-based because they enter cost formulas as ``sqrt(p)``.
* Strings are written MSB-first: ``BitString.from_str("0110")`` has bit 0
  equal to 0 and bit 1 equal to 1.
* Concept classes keep members sorted lexicographically so matrix indexing
  and serialized files are reproducible.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BitString",
    "ConceptClass",
    "majority_value",
    "generate_class",
]


@dataclass(frozen=True, order=True)
class BitString:
    """An immutable length-``n`` binary string, packed MSB-first into an int.

    Lexicographic order on the written string coincides with numeric order
    on ``value`` for equal ``n``, which is what `ConceptClass` sorts by.
    """

    n: int
    value: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("bit string length must be positive")
        if not 0 <= self.value < (1 << self.n):
            raise ValueError(f"value {self.value} out of range for {self.n} bits")

    # on the packed int, not the dataclass's (n, value) tuple: a class's
    # row lookups and the traces' keys hash strings all the time
    def __hash__(self) -> int:
        return hash(self.value)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value and self.n == other.n

    @classmethod
    def from_str(cls, text: str) -> "BitString":
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"not a binary string: {text!r}")
        return cls(len(text), int(text, 2))

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitString":
        value = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            value = (value << 1) | b
        return cls(len(bits), value)

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls(n, 0)

    def bit(self, i: int) -> int:
        """Bit at 0-based position ``i`` (MSB-first)."""
        if not 0 <= i < self.n:
            raise IndexError(f"bit index {i} out of range for length {self.n}")
        return (self.value >> (self.n - 1 - i)) & 1

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self.bit(i) for i in range(self.n))

    def weight(self) -> int:
        return self.value.bit_count()

    def __getitem__(self, i: int) -> int:
        return self.bit(i)

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.bits)

    def __str__(self) -> str:
        return format(self.value, f"0{self.n}b")

    def __repr__(self) -> str:
        return f"BitString('{self}')"


@dataclass(frozen=True)
class ConceptClass:
    """A promise set of distinct equal-length bit strings.

    Members are stored sorted lexicographically; ``members[i]`` is the row
    and column ``i`` of every matrix indexed by this class.
    """

    n: int
    members: tuple[BitString, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("concept class must have at least one member")
        if any(m.n != self.n for m in self.members):
            raise ValueError("all members must have the declared length")
        ordered = tuple(sorted(self.members))
        if any(a.value == b.value for a, b in zip(ordered, ordered[1:])):
            raise ValueError("duplicate members in concept class")
        object.__setattr__(self, "members", ordered)

    @classmethod
    def of(cls, strings: "Iterable[BitString] | ConceptClass") -> "ConceptClass":
        """``strings`` as a class: a class as it is, any other iterable sorted
        and put through the class's checks (nonempty, one length, distinct)."""
        if isinstance(strings, ConceptClass):
            return strings
        members = tuple(strings)
        return cls(members[0].n if members else 0, members)

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "ConceptClass":
        return cls.of(BitString.from_str(s) for s in strings)

    @classmethod
    def from_values(cls, n: int, values: Iterable[int]) -> "ConceptClass":
        return cls(n, tuple(BitString(n, v) for v in values))

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(m.value for m in self.members)

    @cached_property
    def bits(self) -> np.ndarray:
        """The members' bits, (size, n) uint8, row ``i`` holding
        ``members[i]`` MSB-first.  Read-only, computed once."""
        bits = bit_matrix(self.n, self.values)
        bits.setflags(write=False)
        return bits

    @cached_property
    def _rows(self) -> dict[BitString, int]:
        return {x: i for i, x in enumerate(self.members)}

    def index(self, x: BitString) -> int:
        try:
            return self._rows[x]
        except KeyError:
            raise KeyError(f"{x!r} is not a member") from None

    def __contains__(self, x: BitString) -> bool:
        try:
            self.index(x)
            return True
        except KeyError:
            return False

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def to_json(self) -> str:
        payload = {"n": self.n, "members": [str(m) for m in self.members]}
        return json.dumps(payload, sort_keys=True, separators=(",", ": "))

    @classmethod
    def from_json(cls, text: str) -> "ConceptClass":
        """The class ``to_json`` wrote; any other payload raises ValueError."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"a class file must be JSON: {exc}") from None
        if not isinstance(payload, dict) or not {"n", "members"} <= payload.keys():
            raise ValueError('a class file must be a JSON object with keys "n" and "members"')
        n, members = payload["n"], payload["members"]
        if type(n) is not int:
            raise ValueError(f'a class file\'s "n" must be an integer, got {n!r}')
        if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
            raise ValueError('a class file\'s "members" must be a list of binary strings')
        return cls(n, tuple(BitString.from_str(m) for m in members))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "ConceptClass":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ValueError(f"a class file must be UTF-8 JSON: {exc}") from None
        return cls.from_json(text)


def bit_matrix(n: int, values: Sequence[int]) -> np.ndarray:
    """The packed ``n``-bit ``values`` as a (len(values), n) uint8 array of
    their bits, row ``i`` holding ``values[i]`` MSB-first."""
    size = (n + 7) // 8
    pad = 8 * size - n  # left-align each value so its n bits come first
    raw = b"".join((v << pad).to_bytes(size, "big") for v in values)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(values), size)
    return np.unpackbits(packed, axis=1, count=n)


def bit_columns(n: int, values: Sequence[int]) -> list[int]:
    """The bit columns of ``values`` as ``n`` ints: bit ``i`` of column ``j``
    is bit ``j`` (MSB-first) of ``values[i]``."""
    bits = np.packbits(bit_matrix(n, values).T, axis=1, bitorder="little")
    raw, w = bits.tobytes(), bits.shape[1]
    return [int.from_bytes(raw[j * w : (j + 1) * w], "little") for j in range(n)]


def majority_value(values: Sequence[int], n: int) -> int:
    """Packed-int majority of packed-int strings; ties resolve to 1."""
    if not values:
        raise ValueError("majority of empty set")
    size = len(values)
    out = 0
    for i in range(n):
        mask = 1 << (n - 1 - i)
        ones = sum(1 for v in values if v & mask)
        out <<= 1
        if 2 * ones >= size:
            out |= 1
    return out


# every class kind, with the parameters it reads besides n; every kind
# accepts a seed
_KIND_READS = {"cube": (), "hamming": ("k",), "hamming1": (), "hamming-pair": ("k",),
               "prefix": ("free_bits",), "random": ("size",)}

_ENUM_LIMIT = 1 << 20  # no materialized class beyond ~2^20 members


def generate_class(
    kind: str,
    n: int,
    *,
    k: int | None = None,
    free_bits: int | None = None,
    size: int | None = None,
    seed: int | None = None,
) -> ConceptClass:
    """Build one of the named concept-class families.

    kind: ``cube`` (all of {0,1}^n), ``hamming`` (weight exactly ``k``),
    ``hamming1`` (weight 1), ``hamming-pair`` (weight ``k-1`` or ``k``),
    ``prefix`` (arbitrary first ``free_bits`` bits, zeros elsewhere), or
    ``random`` (``size`` distinct strings drawn with the given seed).  A
    parameter other than ``seed`` that the kind does not read is rejected.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if kind not in _KIND_READS:
        raise ValueError(f"unknown class kind {kind!r}")
    unread = [name for name, value in (("k", k), ("free_bits", free_bits), ("size", size))
              if value is not None and name not in _KIND_READS[kind]]
    if unread:
        raise ValueError(f"a {kind} class does not read {' or '.join(unread)}")

    if kind == "cube":
        _check_size(1 << n, f"cube of dimension {n}")
        return ConceptClass.from_values(n, range(1 << n))

    if kind == "hamming1":
        kind, k = "hamming", 1

    if kind == "hamming":
        if k is None or not 0 <= k <= n:
            raise ValueError(f"need a weight 0 <= k <= {n}")
        _check_size(math.comb(n, k), f"weight-{k} class of length {n}")
        values = [_pack_positions(n, combo) for combo in itertools.combinations(range(n), k)]
        return ConceptClass.from_values(n, values)

    if kind == "hamming-pair":
        if k is None or not 1 <= k <= n:
            raise ValueError(f"need a weight 1 <= k <= {n}")
        members = math.comb(n, k - 1) + math.comb(n, k)
        _check_size(members, f"weight-{k - 1}/{k} class of length {n}")
        values = [_pack_positions(n, c) for c in itertools.combinations(range(n), k - 1)]
        values += [_pack_positions(n, c) for c in itertools.combinations(range(n), k)]
        return ConceptClass.from_values(n, values)

    if kind == "prefix":
        if free_bits is None or not 1 <= free_bits <= n:
            raise ValueError(f"need 1 <= free_bits <= {n}")
        _check_size(1 << free_bits, f"prefix class with {free_bits} free bits")
        shift = n - free_bits
        return ConceptClass.from_values(n, (v << shift for v in range(1 << free_bits)))

    # random
    if size is None or size < 1:
        raise ValueError("random classes need a positive size")
    total = 1 << n
    if size > total:
        raise ValueError(f"cannot draw {size} distinct strings of length {n}")
    _check_size(size, f"random class of length {n}")
    rng = np.random.default_rng(seed)
    if total <= _ENUM_LIMIT:
        values = rng.choice(total, size=size, replace=False)
        values = [int(v) for v in values]
    else:
        chosen: set[int] = set()
        while len(chosen) < size:
            if n < 64:  # numpy's integers stop at int64
                chosen.add(int(rng.integers(0, total)))
            else:
                chosen.add(int.from_bytes(rng.bytes(-(-n // 8)), "big") >> (-n % 8))
        values = sorted(chosen)
    return ConceptClass.from_values(n, values)


def _check_size(members: int, what: str) -> None:
    """Refuse, before enumerating, a class larger than ``_ENUM_LIMIT``."""
    if members > _ENUM_LIMIT:
        raise ValueError(f"{what} has {members} members, more than the {_ENUM_LIMIT} allowed")


def _pack_positions(n: int, positions: Sequence[int]) -> int:
    value = 0
    for i in positions:
        value |= 1 << (n - 1 - i)
    return value
