"""Subset classes and antichains over a small ground set.

Subsets of the ground set are plain Python ints used as bitmasks, with
variable k occupying bit k.  Every ordering in this package is ascending
bitmask value, which keeps deduplication and array indexing canonical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator

MAX_GROUND = 6

EMPTY_KEY = "∅"


def bits_of(mask: int) -> Iterator[int]:
    """Yield the bit positions set in mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def squeeze_bit(mask: int, i: int) -> int:
    """Drop bit i from mask and shift higher bits down one slot."""
    low = mask & ((1 << i) - 1)
    return low | ((mask >> (i + 1)) << i)


def unsqueeze_bit(packed: int, i: int) -> int:
    """Inverse of squeeze_bit: reopen slot i (left unset)."""
    low = packed & ((1 << i) - 1)
    return low | ((packed >> i) << (i + 1))


@dataclass(frozen=True)
class GroundSet:
    """The variable set, fixing labels and the bitmask universe."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        for x in self.labels:
            # subset keys join labels with ',', pair keys split at '|', and
            # parse_subset strips spaces and reads '' and EMPTY_KEY as the empty set
            readable = isinstance(x, str) and x not in ("", EMPTY_KEY) and x == x.strip()
            if not readable or "," in x or "|" in x:
                raise ValueError(f"label {x!r} cannot be read back from a subset or pair key")
        n = len(self.labels)
        if not 2 <= n <= MAX_GROUND:
            raise ValueError(
                f"ground set needs between 2 and {MAX_GROUND} variables, got {n}"
            )
        if len(set(self.labels)) != n:
            raise ValueError("ground set labels must be pairwise distinct")

    @classmethod
    def of_size(cls, n: int) -> "GroundSet":
        """The ground set labelled a, b, c, ... with n members."""
        if not 2 <= n <= MAX_GROUND:
            raise ValueError(
                f"ground set needs between 2 and {MAX_GROUND} variables, got {n}"
            )
        return cls(tuple("abcdef")[:n])

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def subsets(self, min_card: int = 0) -> Iterator[int]:
        """All subsets as masks, ascending, with at least min_card members."""
        for mask in range(1 << self.n):
            if mask.bit_count() >= min_card:
                yield mask

    def check_mask(self, mask: int) -> int:
        if not 0 <= mask <= self.full_mask:
            raise ValueError(f"mask {mask} outside the {self.n}-variable universe")
        return mask

    def subset_key(self, mask: int) -> str:
        """Serialize a subset as its sorted labels joined by commas."""
        self.check_mask(mask)
        return subset_key_table(self)[mask]

    def parse_subset(self, key: str) -> int:
        key = key.strip()
        if key in ("", EMPTY_KEY):
            return 0
        mask = 0
        for part in key.split(","):
            part = part.strip()
            try:
                i = self.labels.index(part)
            except ValueError:
                raise ValueError(f"unknown variable label {part!r}") from None
            if mask & (1 << i):
                raise ValueError(f"variable {part!r} repeated in subset key {key!r}")
            mask |= 1 << i
        return mask

    def pair_key(self, i: int, b: int) -> str:
        """Serialize a conditional pair (i|B)."""
        if not 0 <= i < self.n:
            raise ValueError(f"variable index {i} out of range")
        if b & (1 << i):
            raise ValueError("conditioning set of a pair may not contain the variable")
        return f"{self.labels[i]}|{self.subset_key(b)}"

    def parse_pair(self, key: str) -> tuple[int, int]:
        head, sep, tail = key.partition("|")
        if not sep:
            raise ValueError(f"pair key {key!r} is missing the '|' separator")
        head = head.strip()
        try:
            i = self.labels.index(head)
        except ValueError:
            raise ValueError(f"unknown variable label {head!r}") from None
        b = self.parse_subset(tail)
        if b & (1 << i):
            raise ValueError(f"pair key {key!r} conditions on its own variable")
        return i, b

    def tag_key(self, mask: int) -> str:
        """Compact subset rendering for constraint tags (labels concatenated)."""
        self.check_mask(mask)
        return tag_key_table(self)[mask]


@lru_cache(maxsize=None)
def subset_key_table(ground: GroundSet) -> tuple[str, ...]:
    """subset_key of every subset, indexed by mask: the labels sorted as
    strings and joined by commas."""
    labels = ground.labels
    return (EMPTY_KEY,) + tuple(
        ",".join(sorted(labels[i] for i in bits_of(m))) for m in range(1, 1 << ground.n)
    )


@lru_cache(maxsize=None)
def tag_key_table(ground: GroundSet) -> tuple[str, ...]:
    """tag_key of every subset, indexed by mask: the labels in bit order,
    concatenated."""
    labels = ground.labels
    return (EMPTY_KEY,) + tuple(
        "".join(labels[i] for i in bits_of(m)) for m in range(1, 1 << ground.n)
    )


def _ground_from_labels(labels) -> GroundSet:
    """The ground set named by a JSON 'labels' value, which must be an array
    of strings: a bare string is refused, not read one label per character."""
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ValueError("'labels' must be a JSON array of strings")
    return GroundSet(tuple(labels))


def _json_text(obj) -> str:
    """The one JSON text every report, catalog and ray list is written as."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=1) + "\n"


def _write_text(text: str, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _rational_entries(entries):
    """The (key, value) pairs of a JSON entry table, each value read as an
    exact rational (a JSON number or a string such as "-3/2")."""
    if not isinstance(entries, dict):
        raise ValueError("'entries' must be a JSON object mapping keys to values")
    for key, value in entries.items():
        try:
            number = Fraction(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            number = None
        # Fraction(True) == 1, but a JSON boolean is not a number
        if number is None or isinstance(value, bool):
            raise ValueError(f"entry {key!r} is not a rational number: {value!r}")
        yield key, number


def _integer_entries(entries):
    """Like _rational_entries, but a value that is not an integer is refused
    rather than truncated."""
    for key, value in _rational_entries(entries):
        if value.denominator != 1:
            raise ValueError(f"entry {key!r} must be an integer, got {entries[key]!r}")
        yield key, int(value)


def _keyed_entries(pairs, coordinate):
    """(coordinate(key), value) for each (key, value) in pairs; two keys that
    name one coordinate, such as "a,b" and "b,a", are refused, not merged."""
    named = {}
    for key, value in pairs:
        at = coordinate(key)
        if at in named:
            raise ValueError(f"entries {named[at]!r} and {key!r} name the same coordinate")
        named[at] = key
        yield at, value


@lru_cache(maxsize=None)
def p1_masks(ground: GroundSet) -> tuple[int, ...]:
    """Non-empty subsets, ascending."""
    return tuple(range(1, 1 << ground.n))


@lru_cache(maxsize=None)
def p2_masks(ground: GroundSet) -> tuple[int, ...]:
    """Subsets with at least two members, ascending."""
    return tuple(m for m in range(1 << ground.n) if m.bit_count() >= 2)


@lru_cache(maxsize=None)
def p2_index(ground: GroundSet) -> dict[int, int]:
    return {m: k for k, m in enumerate(p2_masks(ground))}


@lru_cache(maxsize=None)
def eta_pairs(ground: GroundSet) -> tuple[tuple[int, int], ...]:
    """Canonical order of conditional pairs (i|B): by i, then by B ascending."""
    out = []
    for i in range(ground.n):
        for packed in range(1 << (ground.n - 1)):
            out.append((i, unsqueeze_bit(packed, i)))
    return tuple(out)


def pair_index(ground: GroundSet, i: int, b: int) -> int:
    if b & (1 << i):
        raise ValueError("conditioning set of a pair may not contain the variable")
    return i * (1 << (ground.n - 1)) + squeeze_bit(b, i)


@dataclass(frozen=True)
class SetClass:
    """A class of subsets, stored in canonical ascending order."""

    ground: GroundSet
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        members = tuple(sorted(set(self.members)))
        for m in members:
            self.ground.check_mask(m)
        object.__setattr__(self, "members", members)

    def __contains__(self, mask: int) -> bool:
        return mask in set(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)


@dataclass(frozen=True)
class Antichain:
    """A non-empty class of non-empty subsets, pairwise incomparable."""

    ground: GroundSet
    sets: tuple[int, ...]

    def __post_init__(self) -> None:
        sets = tuple(sorted(set(self.sets)))
        if not sets:
            raise ValueError("antichain must be non-empty")
        for m in sets:
            self.ground.check_mask(m)
            if m == 0:
                raise ValueError("antichain members must be non-empty subsets")
        for a in sets:
            for b in sets:
                if a != b and a & b == a:
                    raise ValueError(
                        "antichain members must be pairwise incomparable: "
                        f"{self.ground.subset_key(a)} is contained in "
                        f"{self.ground.subset_key(b)}"
                    )
        object.__setattr__(self, "sets", sets)

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[int]:
        return iter(self.sets)

    def tag(self) -> str:
        return ",".join(self.ground.tag_key(s) for s in self.sets)


def power_class(ground: GroundSet, min_card: int = 0) -> SetClass:
    """All subsets of the ground set with at least min_card members."""
    if not 0 <= min_card <= ground.n:
        raise ValueError(f"min_card must lie in 0..{ground.n}, got {min_card}")
    return SetClass(ground, tuple(ground.subsets(min_card)))


def superset_closure(antichain: Antichain) -> SetClass:
    """All subsets containing at least one member of the antichain."""
    ground = antichain.ground
    members = [
        s
        for s in range(1, 1 << ground.n)
        if any(t & s == t for t in antichain.sets)
    ]
    return SetClass(ground, tuple(members))


def is_superset_closed(cls: SetClass) -> bool:
    return _up_set(cls.ground.n, cls.members) == sum(1 << m for m in cls.members)


def minimal_sets(cls: SetClass) -> Antichain:
    """Inclusion-minimal members of a non-empty, superset-closed class.

    Rejects classes that are empty, contain the empty set, or are not
    closed under supersets.
    """
    if not cls.members:
        raise ValueError("cannot take minimal sets of an empty class")
    if 0 in cls.members:
        raise ValueError("class members must be non-empty subsets")
    if not is_superset_closed(cls):
        raise ValueError("class is not closed under supersets")
    # in a superset-closed class a member is minimal when no member lies one
    # element below it
    present = set(cls.members)
    mins = [s for s in cls.members if not any(s ^ 1 << i in present for i in bits_of(s))]
    return Antichain(cls.ground, tuple(mins))


def _submasks(mask: int) -> list[int]:
    """The submasks of mask, ascending."""
    subs = [0]
    sub = 0
    while sub != mask:
        sub = (sub - mask) & mask
        subs.append(sub)
    return subs


@lru_cache(maxsize=None)
def _butterfly_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """(S, S+b) for every variable b and every S without it, pass by pass."""
    return tuple(
        (s, s | 1 << b) for b in range(n) for s in range(1 << n) if not s >> b & 1
    )


def _superset_butterfly(values: list, n: int, sign: int) -> list:
    # one pass per variable adds sign times the entry of S+b into S
    v = list(values)
    if sign > 0:
        for s, t in _butterfly_pairs(n):
            v[s] += v[t]
    else:
        for s, t in _butterfly_pairs(n):
            v[s] -= v[t]
    return v


def superset_zeta(values: list, n: int) -> list:
    """p[S] = sum of values[T] over T containing S (butterfly on a copy)."""
    return _superset_butterfly(values, n, 1)


def superset_moebius(values: list, n: int) -> list:
    """Inverse of superset_zeta: alternating sum over supersets."""
    return _superset_butterfly(values, n, -1)


@lru_cache(maxsize=None)
def _superset_bits(n: int) -> tuple[int, ...]:
    """up[m]: the supersets of m as a 2**n-bit int, bit t standing for
    subset t."""
    return tuple(superset_zeta([1 << t for t in range(1 << n)], n))


def _up_set(n: int, masks) -> int:
    """The subsets containing one of masks, as a 2**n-bit int with bit t
    standing for subset t."""
    up = _superset_bits(n)
    closure = 0
    for m in masks:
        closure |= up[m]
    return closure


def _antichain_walk(ground: GroundSet, root, grow: Callable) -> Iterator[tuple[object, int]]:
    """The package's one antichain recursion: every non-empty antichain of
    non-empty subsets as (state, closure), state folded down the walk from
    root by grow(parent state, added set), closure the superset closure as
    a 2**n-bit int with bit t set when subset t contains a member.

    Backtracking over non-empty subsets in ascending mask order; a partial
    choice is extended only with later sets outside the closure of its
    members (a later mask is never a subset of an earlier one), so each
    antichain appears exactly once.  n >= 6 (7.8 M antichains) is refused
    on the call, before any state is grown.
    """
    if ground.n >= 6:
        raise ValueError("antichain enumeration is limited to n <= 5")
    up = _superset_bits(ground.n)

    def extend(state, free, closure):
        # free: the later sets comparable to no chosen member, as a bitset
        while free:
            low = free & -free
            free ^= low
            cand = low.bit_length() - 1
            child = grow(state, cand)
            grown = closure | up[cand]
            yield child, grown
            yield from extend(child, free & ~grown, grown)

    return extend(root, (1 << (1 << ground.n)) - 2, 0)


def walk_antichains(ground: GroundSet) -> Iterator[tuple[tuple[int, ...], int]]:
    """Stream every non-empty antichain of non-empty subsets as (sets,
    closure): its members ascending, and its superset closure as a 2**n-bit
    int with bit t set when subset t contains a member (_antichain_walk,
    whose order this is).  Refuses n >= 6."""
    return _antichain_walk(ground, (), lambda sets, m: sets + (m,))


def enumerate_antichains(ground: GroundSet) -> Iterator[Antichain]:
    """Every antichain of walk_antichains, in its order, as a validated
    Antichain.  Refuses n >= 6."""
    for sets, _ in walk_antichains(ground):
        yield Antichain(ground, sets)


def union_closure_class(antichain: Antichain) -> SetClass:
    """Unions of all non-empty subclasses of the antichain."""
    closed: set[int] = set()
    for a in antichain.sets:
        closed |= {a | u for u in closed}
        closed.add(a)
    return SetClass(antichain.ground, tuple(closed))
