"""Iterated function systems of contracting similarities.

Similarity dimension, the renewal normalizer eta, lattice detection and
the code-space word tree. Ambient dimension d is 1 or 2.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import ConfigError, FtlError

ORTHO_TOL = 1e-12
DIMENSION_TOL = 1e-12  # bracket width and residual bound of similarity_dimension's root
LATTICE_TOL = 1e-9  # rational-approximation tolerance of is_lattice (error <= tol * |x| / q)
LATTICE_Q_MAX = 10**6  # largest denominator of a rational relation is_lattice accepts
WORD_MAX_LEN = 64  # depth guard of words_up_to_ratio's word tree


@dataclass(frozen=True)
class Similarity:
    """Contracting similarity x -> ratio * Q x + t with Q orthogonal."""

    ratio: float
    orthogonal_part: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        q = np.atleast_2d(np.asarray(self.orthogonal_part, dtype=float))
        t = np.atleast_1d(np.asarray(self.translation, dtype=float))
        if q.shape[0] != q.shape[1] or q.shape[0] != t.shape[0]:
            raise ConfigError("orthogonal part and translation dimensions differ")
        if not np.isfinite(t).all():
            raise ConfigError(f"translation must be finite, got {t.tolist()}")
        check_similarity_parts(np.array([self.ratio]), q[None])
        object.__setattr__(self, "orthogonal_part", q)
        object.__setattr__(self, "translation", t)

    @property
    def dim(self) -> int:
        return self.translation.shape[0]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Apply to points of shape (..., d) or scalars in d=1."""
        p = np.asarray(points, dtype=float)
        if self.dim == 1 and p.ndim <= 1:
            return self.ratio * self.orthogonal_part[0, 0] * p + self.translation[0]
        return self.ratio * (p @ self.orthogonal_part.T) + self.translation

    def inverse(self) -> "AffineMap":
        qinv = self.orthogonal_part.T
        return AffineMap(qinv / self.ratio, -(qinv @ self.translation) / self.ratio)

    def compose(self, other: "Similarity") -> "Similarity":
        """self after other composed as self(other(x))."""
        return Similarity(
            self.ratio * other.ratio,
            self.orthogonal_part @ other.orthogonal_part,
            self(other.translation),
        )

    def fixed_point(self) -> np.ndarray:
        a = np.eye(self.dim) - self.ratio * self.orthogonal_part
        return np.linalg.solve(a, self.translation)


def check_similarity_parts(ratios: np.ndarray, orthogonal_parts: np.ndarray) -> None:
    """Refuse stacked similarity parts unless every ratio lies in (0, 1) and
    every orthogonal part Q (shape (m, d, d)) has Q^T Q = I within ORTHO_TOL."""
    bad = ~((0.0 < ratios) & (ratios < 1.0))
    if bad.any():
        raise ConfigError(f"similarity ratio must lie in (0,1), got {ratios[bad][0]}")
    gram = np.swapaxes(orthogonal_parts, 1, 2) @ orthogonal_parts
    if not np.all(np.abs(gram - np.eye(gram.shape[-1])) <= ORTHO_TOL):
        raise ConfigError("orthogonal part is not orthogonal within 1e-12")


@dataclass(frozen=True)
class AffineMap:
    """Plain affine map x -> A x + b (used for similarity inverses)."""

    matrix: np.ndarray
    offset: np.ndarray

    def __call__(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        if self.offset.shape[0] == 1 and p.ndim <= 1:
            return self.matrix[0, 0] * p + self.offset[0]
        return p @ self.matrix.T + self.offset


@dataclass(frozen=True)
class IFS:
    maps: tuple[Similarity, ...]
    ambient_dim: int

    def __post_init__(self):
        maps = tuple(self.maps)
        if len(maps) < 2:
            raise ConfigError("an IFS needs at least two maps")
        if any(m.dim != self.ambient_dim for m in maps):
            raise ConfigError("all maps must share the ambient dimension")
        if self.ambient_dim not in (1, 2):
            raise ConfigError("ambient dimension must be 1 or 2")
        object.__setattr__(self, "maps", maps)

    @property
    def n(self) -> int:
        return len(self.maps)

    @property
    def ratios(self) -> np.ndarray:
        return np.array([m.ratio for m in self.maps])


@dataclass(frozen=True)
class Word:
    """Finite word over the alphabet {0, .., N-1} addressing a cylinder."""

    letters: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def extend(self, letter: int) -> "Word":
        return Word(self.letters + (letter,))

    def ratio(self, ifs: IFS) -> float:
        r = 1.0
        for a in self.letters:
            r *= ifs.maps[a].ratio
        return r

    def map(self, ifs: IFS) -> Similarity | None:
        """Composed similarity S_sigma, None for the empty word."""
        m = None
        for a in self.letters:
            m = ifs.maps[a] if m is None else m.compose(ifs.maps[a])
        return m

    def __str__(self) -> str:
        return "".join(str(a + 1) for a in self.letters) or "<empty>"


@dataclass(frozen=True)
class DimensionData:
    D: float
    eta: float
    lattice: bool
    lattice_base: float | None = None
    note: str = ""


def similarity_dimension(ifs: IFS) -> float:
    """Unique root of sum(r_i^s) = 1, by bisection plus a Newton polish.

    The map s -> sum r_i^s is strictly decreasing, so the bracket
    [0, 2d] is safe for contracting maps; non-convergence within 200
    bisection steps signals malformed ratios.
    """
    r = ifs.ratios
    lo, hi = 0.0, 2.0 * ifs.ambient_dim

    def f(s):
        return np.sum(r**s) - 1.0

    if f(lo) <= 0:
        raise FtlError("dimension bracket failed at s=0 (need N >= 2 contracting maps)")
    while f(hi) > 0:
        hi *= 2.0
        if hi > 1e6:
            raise FtlError("dimension solver failed to bracket the root")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < DIMENSION_TOL:
            break
    s = 0.5 * (lo + hi)
    # Newton polish: f'(s) = sum r^s ln r
    for _ in range(8):
        fs = f(s)
        dfs = float(np.sum(r**s * np.log(r)))
        if dfs == 0.0:
            break
        step = fs / dfs
        s -= step
        if abs(step) < DIMENSION_TOL / 4:
            break
    if abs(f(s)) > DIMENSION_TOL:
        raise FtlError(f"dimension solver residual {f(s):.3e} exceeds tol {DIMENSION_TOL:.3e}")
    return float(s)


def eta(ifs: IFS, D: float) -> float:
    """Renewal normalizer sum r_i^D |ln r_i| (> 0)."""
    r = ifs.ratios
    return float(np.sum(r**D * np.abs(np.log(r))))


def is_lattice(ifs: IFS) -> tuple[bool, float | None]:
    """Detect whether {-ln r_i} generate a discrete subgroup of R.

    Tests each ln(r_i)/ln(r_1) for a rational p/q with q <= LATTICE_Q_MAX via
    continued fractions at tolerance LATTICE_TOL. Floating ratios cannot prove
    irrationality, so a False verdict means "no rational relation found
    at this precision". When True, also returns the group generator h.
    """
    logs = -np.log(ifs.ratios)
    base_log = logs[0]
    fracs: list[Fraction] = []
    for x in logs / base_log:
        frac = _rational_approx(float(x), LATTICE_TOL)
        if frac is None:
            return False, None
        fracs.append(frac)
    # -ln r_i = (p_i / q_i) * base_log; the group generator is
    # base_log * gcd({p_i * L / q_i}) / L with L = lcm(q_i).
    lcm = 1
    for fr in fracs:
        lcm = lcm * fr.denominator // math.gcd(lcm, fr.denominator)
    mults = [fr.numerator * (lcm // fr.denominator) for fr in fracs]
    g = 0
    for m in mults:
        g = math.gcd(g, m)
    return True, float(base_log * g / lcm)


def _rational_approx(x: float, tol: float) -> Fraction | None:
    """Continued-fraction convergent p/q with q <= LATTICE_Q_MAX, or None.

    Acceptance is denominator-weighted (error <= tol * |x| / q): a float that
    genuinely equals p/q matches to machine precision at any q, while an
    irrational's convergents only reach ~1/q^2, which fails for small tol.
    """
    if x <= 0:
        return None

    def good(p, q):
        return q <= LATTICE_Q_MAX and abs(x - p / q) <= tol * max(1.0, abs(x)) / q

    a = x
    p_prev, q_prev, p, q = 1, 0, int(math.floor(a)), 1
    for _ in range(64):
        if good(p, q):
            return Fraction(p, q)
        frac = a - math.floor(a)
        if frac < 1e-15:
            break
        a = 1.0 / frac
        ai = int(math.floor(a))
        p_prev, q_prev, p, q = p, q, ai * p + p_prev, ai * q + q_prev
        if q > LATTICE_Q_MAX:
            return None
    return Fraction(p, q) if good(p, q) else None


def dimension_data(ifs: IFS) -> DimensionData:
    D = similarity_dimension(ifs)
    latt, base = is_lattice(ifs)
    note = (
        f"lattice (base {base:.6g})"
        if latt
        else "nonlattice at float precision (no rational relation with q <= 1e6)"
    )
    return DimensionData(D=D, eta=eta(ifs, D), lattice=latt, lattice_base=base, note=note)


@dataclass(frozen=True)
class WordTree:
    """Prefix-closed words of an IFS, stored one word length at a time.

    Level L holds the words of length L in lexicographic order:
    parent[L][i] is the index in level L - 1 of word i's prefix (so the
    indices never decrease), letter[L][i] its last letter and ratio[L][i]
    its r_sigma, the prefix's ratio times the letter's (Word.ratio's
    product, in letter order). Level 0 holds the empty word, ratio 1.0, or
    nothing; the words of length 1 then hang from a root that is not
    stored. Iterating yields Word objects in depth-first pre-order with the
    highest letter first.
    """

    parent: tuple[np.ndarray, ...]
    letter: tuple[np.ndarray, ...]
    ratio: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return sum(r.size for r in self.ratio)

    def __iter__(self) -> Iterator[Word]:
        words = self._levels((), lambda w, a: w + (a,))
        for i in self.preorder().tolist():
            yield Word(words[i])

    def labelled(self) -> list[tuple[str, float]]:
        """(str(w), r_sigma) of every word w, in iteration order."""
        names = self._levels("", lambda w, a: w + str(a + 1))
        ratios = np.concatenate(self.ratio).tolist()
        return [(names[i] or str(Word()), ratios[i]) for i in self.preorder().tolist()]

    def _levels(self, root, step) -> list:
        """A value per word, levels concatenated: root for the empty word,
        step(prefix's value, last letter) for the others."""
        out, level = [root] * self.ratio[0].size, [root]
        for p, a in zip(self.parent[1:], self.letter[1:]):
            level = [step(level[i], b) for i, b in zip(p.tolist(), a.tolist())]
            out += level
        return out

    def preorder(self) -> np.ndarray:
        """Indices into the concatenated levels in depth-first pre-order, highest letter first.

        A word's position is its parent's plus one plus the subtree sizes of
        its later siblings in the level (same parent, higher letters), which
        the walk visits first.
        """
        size = [np.ones(r.size, np.int64) for r in self.ratio]
        for length in range(len(size) - 1, 1, -1):
            np.add.at(size[length - 1], self.parent[length], size[length])
        pos = [np.zeros(self.ratio[0].size, np.int64)]
        up = pos[0] if self.ratio[0].size else np.full(1, -1)  # a root that is not stored sits at -1
        for p, s in zip(self.parent[1:], size[1:]):
            later = np.append(np.cumsum(s[::-1])[::-1], 0)  # later[i]: subtree sizes of words i, i + 1, ...
            up = up[p] + 1 + later[1:] - later[np.searchsorted(p, p, side="right")]
            pos.append(up)
        order = np.empty(len(self), np.int64)
        order[np.concatenate(pos)] = np.arange(len(self))
        return order

    @classmethod
    def from_words(cls, ifs: IFS, words) -> "WordTree":
        """The tree of a word list; every word's proper prefixes but the empty
        word must be in it."""
        by_len: dict[int, set] = {}
        for w in words:
            by_len.setdefault(len(w), set()).add(w.letters)
        root = np.ones(len(by_len.get(0, ())))
        parent, letter, ratio = [np.full(root.size, -1)], [np.zeros(root.size, np.int64)], [root]
        index = {(): 0}
        for length in range(1, max(by_len, default=0) + 1):
            level = sorted(by_len.get(length, ()))
            try:
                p = np.array([index[w[:-1]] for w in level], dtype=np.int64)
            except KeyError:
                raise ConfigError("tile words must be prefix-closed") from None
            a = np.array([w[-1] for w in level], dtype=np.int64)
            parent.append(p)
            letter.append(a)
            ratio.append((ratio[-1] if length > 1 else np.ones(1))[p] * ifs.ratios[a])
            index = {w: i for i, w in enumerate(level)}
        return cls(tuple(parent), tuple(letter), tuple(ratio))


def words_up_to_ratio(ifs: IFS, r_min: float) -> WordTree:
    """All words (tree nodes, including the empty word) with r_sigma > r_min.

    The tree is grown one length at a time: every word of the last length
    times every map, kept while the product stays above r_min.
    """
    r = ifs.ratios
    ratio = [np.ones(1) if 1.0 > r_min else np.zeros(0)]
    parent, letter = [np.full(ratio[0].size, -1)], [np.zeros(ratio[0].size, np.int64)]
    while ratio[-1].size:
        if len(ratio) > WORD_MAX_LEN:
            raise FtlError("word tree exceeded max length")
        child = ratio[-1][:, None] * r  # prefix-major, letters ascending
        p, a = np.nonzero(child > r_min)
        if not p.size:
            break
        parent.append(p)
        letter.append(a)
        ratio.append(child[p, a])
    return WordTree(tuple(parent), tuple(letter), tuple(ratio))


def rotation(angle_deg: float) -> np.ndarray:
    a = math.radians(angle_deg)
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


IFS_KEYS = ("dim", "maps")
MAP_KEYS = ("ratio", "translation", "matrix", "angle", "reflect")  # the first two are required


def _is_number(x) -> bool:
    """A real number that a float holds finitely; a bool is not one."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int past the float range
        return False


def _check_keys(obj, allowed, required, where: str) -> None:
    """Refuse obj unless it is a dict with every required key and no key outside allowed."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    faults = [f"unknown key {k!r}" for k in sorted(set(obj) - set(allowed))]
    faults += [f"missing key {k!r}" for k in required if k not in obj]
    if faults:
        raise ConfigError(f"{where}: " + ", ".join(faults))


def load_ifs(doc: dict) -> IFS:
    """Build an IFS from a parsed JSON document.

    Schema: {"dim": 1 | 2, "maps": [{"ratio": r, "translation": [..], and
    "matrix": [[..]] or "angle": deg [, "reflect": true]}, ...]}. "angle" and
    "reflect" are d=2 conveniences; an omitted matrix means the identity.
    An unknown or missing key, and a value of the wrong type, is refused
    with a ConfigError that names the key. Numbers are finite ints or
    floats, never bools; a translation's finiteness is Similarity's check.
    """
    _check_keys(doc, IFS_KEYS, IFS_KEYS, "ifs")
    d = doc["dim"]
    if type(d) is not int or d not in (1, 2):
        raise ConfigError(f"ifs: 'dim' must be the integer 1 or 2, got {d!r}")
    if not isinstance(doc["maps"], list):
        raise ConfigError(f"ifs: 'maps' must be a list, got {doc['maps']!r}")

    def is_list(x, item) -> bool:
        return isinstance(x, list) and len(x) == d and all(map(item, x))

    rules = (  # (key, valid, what it must be); a translation may hold a non-finite float
        ("ratio", _is_number, "a finite number"),
        ("translation", lambda t: is_list(t, lambda x: type(x) is float or _is_number(x)), f"a list of {d} numbers"),
        ("matrix", lambda q: is_list(q, lambda r: is_list(r, _is_number)), f"{d} lists of {d} numbers"),
        ("angle", _is_number, "a finite number"),
        ("reflect", lambda x: type(x) is bool, "true or false"),
    )
    maps = []
    for i, m in enumerate(doc["maps"]):
        where = f"ifs map {i}"
        _check_keys(m, MAP_KEYS, MAP_KEYS[:2], where)
        for key, valid, expected in rules:
            if key in m and not valid(m[key]):
                raise ConfigError(f"{where}: {key!r} must be {expected}, got {m[key]!r}")
        if "angle" in m:
            if "matrix" in m:
                raise ConfigError(f"{where}: give 'matrix' or 'angle', not both")
            if d != 2:
                raise ConfigError(f"{where}: 'angle' rotations are only defined for dim 2")
            q = rotation(float(m["angle"]))
            if m.get("reflect"):
                q = q @ np.diag([1.0, -1.0])
        elif "reflect" in m:
            raise ConfigError(f"{where}: 'reflect' needs 'angle'")
        else:
            q = np.asarray(m["matrix"], dtype=float) if "matrix" in m else np.eye(d)
        t = np.asarray(m["translation"], dtype=float)
        maps.append(Similarity(float(m["ratio"]), q, t))
    return IFS(tuple(maps), d)
