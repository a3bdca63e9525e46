"""
Bias tables and the model families built on them.

A bias table P assigns each ordered label pair (i, j) the probability p[i][j]
of putting i ahead of j when the pair is compared, with p[j][i] = 1 - p[i][j]
held exactly (entries are Fractions).  A table is positively biased when
p[i][j] >= 1/2 for every i < j; the sorted permutation is then a mode of the
stationary distribution

    pi(sigma) proportional to prod over positions a < b of p[sigma(a)][sigma(b)].

Model families:

* constant: p[i][j] = p for all i < j.
* choose-your-weapon: the smaller (or, in the max variant, larger) label of
  the pair fixes the probability, p[i][j] = r_min(i,j).
* league hierarchy: p[i][j] = q at the lowest common ancestor of leaves i, j
  in a league tree.
* slow-mixing counterexample on 2n labels: pairs within the same half are
  frozen (p = 1), and cross-half pairs get 1 - delta near the corner of the
  staircase-walk picture and 1/2 + eps elsewhere.  delta is solved so the
  walk measure puts equal mass on the two sides of the bottleneck.

Weights are exact Fractions, for small-n detailed-balance work.  The exact
weight is one integer product: each pair's p[i][j] and p[j][i] are
written over their common denominator, so a weight is the product of integer
numerators over the product of the pair denominators, reduced once.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Sequence

from . import walks
from ._common import as_probability, check_label_count
from .perms import check_permutation
from .trees import LeagueTree

HALF = Fraction(1, 2)


class BiasTable:
    """Dense table of pair probabilities over labels 1..n, exact complement."""

    def __init__(self, n: int, upper: Callable[[int, int], Fraction]):
        """upper(i, j) supplies p[i][j] for i < j; the complement is derived.

        More than ``LABEL_CAP`` labels raise ``CapExceeded`` before any entry
        is filled: the table holds (n + 1)**2 of them.
        """
        check_label_count(n)
        self.n = n
        self._p = [[None] * (n + 1) for _ in range(n + 1)]
        pairs: dict = {}  # (type, value) of upper -> (p, 1 - p); the float 0.1 equals Fraction(0.1) but reads 1/10
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                value = upper(i, j)
                if (key := (type(value), value)) not in pairs:
                    pairs[key] = (p := as_probability(value), 1 - p)
                self._p[i][j], self._p[j][i] = pairs[key]

    @cached_property
    def integer_pairs(self) -> tuple[list, int]:
        """(a, D): each pair's probabilities as integers over one denominator.

        With d_ij the denominator of p[i][j] (p[j][i] = 1 - p[i][j] has the
        same one), a[i][j] = p[i][j] * d_ij, so a[i][j] + a[j][i] = d_ij; D is
        the product of d_ij over the unordered pairs.  Built on the first
        weighing, so constructing a table costs no more.
        """
        n = self.n
        a = [[0] * (n + 1) for _ in range(n + 1)]
        total = 1
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                p = self._p[i][j]
                a[i][j] = p.numerator
                a[j][i] = p.denominator - p.numerator
                total *= p.denominator
        return a, total

    def p(self, i: int, j: int) -> Fraction:
        """Probability that i is put ahead of j; 1-based labels, i != j."""
        if i == j or not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"bad label pair ({i}, {j}) for n={self.n}")
        return self._p[i][j]

    def forced_pair(self) -> tuple[int, int] | None:
        """The first pair (i, j), i < j, whose order is forced (p[i][j] is 0
        or 1), else None.  A table has one exactly when some permutation has
        weight 0: each permutation that puts that pair the other way."""
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                if self._p[i][j] in (0, 1):
                    return i, j
        return None

    def is_positively_biased(self) -> bool:
        return all(
            self._p[i][j] >= HALF
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
        )


# -- weights ------------------------------------------------------------------


def weight_exact(sigma: Sequence[int], table: BiasTable) -> Fraction:
    """Unnormalized stationary weight: product of p over in-order position pairs.

    Taken as one integer product of the numerators ``a`` of
    ``table.integer_pairs`` over their fixed denominator D, so the only
    reduction is Fraction's one gcd.  Returns Fraction(0) when the arrangement
    uses a forbidden (p = 0) factor.
    """
    sigma = check_permutation(sigma)
    if len(sigma) != table.n:
        raise ValueError(f"permutation size {len(sigma)} != table size {table.n}")
    a, total = table.integer_pairs
    numerator = 1
    for k, i in enumerate(sigma):
        row = a[i]
        for j in sigma[k + 1 :]:
            numerator *= row[j]
    return Fraction(numerator, total)


# -- constructors --------------------------------------------------------------


def constant_bias(n: int, p) -> BiasTable:
    q = positive_bias(p)
    return BiasTable(n, lambda i, j: q)


def positive_bias(p) -> Fraction:
    """A constant model's probability, refused below 1/2."""
    q = as_probability(p)
    if q < HALF:
        raise ValueError(f"constant bias must be >= 1/2, got {q}")
    return q


@dataclass(frozen=True)
class CywSpec:
    """Choose-your-weapon parameters.

    r has length n-1.  In the min variant r[k-1] belongs to label k in
    1..n-1 and p[i][j] = r[i-1] for i < j.  In the max variant r[k-2]
    belongs to label k in 2..n and p[i][j] = r[j-2] for i < j.
    """

    r: tuple
    variant: str = "min"

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(as_probability(x) for x in self.r))
        if self.variant not in ("min", "max"):
            raise ValueError(f"variant must be 'min' or 'max': {self.variant}")
        for x in self.r:
            if not HALF <= x < 1:
                raise ValueError(f"rank probabilities must lie in [1/2, 1): {x}")

    @property
    def n(self) -> int:
        return len(self.r) + 1

    def rank_prob(self, i: int, j: int) -> Fraction:
        """Probability attached to the unordered pair {i, j}."""
        if self.variant == "min":
            return self.r[min(i, j) - 1]
        return self.r[max(i, j) - 2]


def choose_your_weapon(spec: CywSpec) -> BiasTable:
    return BiasTable(spec.n, lambda i, j: spec.rank_prob(i, j))


def league_hierarchy(tree: LeagueTree) -> BiasTable:
    return BiasTable(tree.n, lambda i, j: tree.lca_q(i, j))


# -- weak monotonicity -----------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityReport:
    positive: bool      # p[i][j] >= 1/2 for all i < j
    rows_up: bool       # p[i][j+1] >= p[i][j]  (larger opponent never hurts i)
    cols_down: bool     # p[i-1][j] >= p[i][j]  (smaller advocate never loses odds)

    @property
    def weakly_monotone(self) -> bool:
        return self.positive and (self.rows_up or self.cols_down)

    @property
    def monotone(self) -> bool:
        return self.positive and self.rows_up and self.cols_down

    def __bool__(self) -> bool:
        return self.weakly_monotone


def is_weakly_monotone(table: BiasTable) -> MonotonicityReport:
    n = table.n
    positive = table.is_positively_biased()
    rows_up = all(
        table.p(i, j + 1) >= table.p(i, j)
        for i in range(1, n)
        for j in range(i + 1, n)
    )
    cols_down = all(
        table.p(i - 1, j) >= table.p(i, j)
        for i in range(2, n)
        for j in range(i + 1, n + 1)
    )
    return MonotonicityReport(positive=positive, rows_up=rows_up, cols_down=cols_down)


# -- slow-mixing counterexample ---------------------------------------------------


@dataclass(frozen=True)
class SlowMixSpec:
    """Parameters of the fluctuating-bias family on 2n labels.

    A cross-half pair on a steep tile is ordered with probability ``steep`` =
    1 - delta, any other with ``flat`` = 1/2 + eps.  eps = 1/(16n+2), so the
    flat odds are gamma = (4n+1)/(4n) exactly; delta is the solved balance
    point, xi = (1-delta)/delta the steep odds.  The bottleneck sits at walk
    height n - sqrt(n), integer level cut_level = n - isqrt(n).
    """

    n: int
    delta: Fraction

    @property
    def eps(self) -> Fraction:
        return Fraction(1, 16 * self.n + 2)

    @property
    def flat(self) -> Fraction:
        return HALF + self.eps

    @property
    def steep(self) -> Fraction:
        return 1 - self.delta

    @property
    def gamma(self) -> Fraction:
        return 1 + Fraction(1, 4 * self.n)

    @property
    def xi(self) -> Fraction:
        return (1 - self.delta) / self.delta

    @property
    def level(self) -> int:
        return walks.cut_level(self.n)

    def cross_prob(self, small: int, large: int) -> Fraction:
        """p[small][large] for small <= n < large, by the exact diagonal test."""
        t = small - (large - self.n) + 1
        return self.steep if walks.exceeds_diag(t, self.n) else self.flat

    def pair_prob(self, i: int, j: int) -> Fraction:
        """p[i][j] for any i < j over the 2n labels."""
        if j <= self.n or i > self.n:
            return Fraction(1)
        return self.cross_prob(i, j)


def _gap_coefficients(n: int, tables) -> list[int]:
    """Integer coefficients C_s of the balance gap mass(S3) - mass(S1) in xi.

    With gamma = (4n+1)/(4n), (4n)^F * gap(xi) = sum_s C_s xi^s, where F is
    the largest flat count and C_s = sum_f +-cnt (4n+1)^f (4n)^(F-f): plus
    for the high class S3, minus for the low class S1.
    """
    top = max(f for cls in (1, 3) for f, _ in tables[cls])
    coeffs = [0] * (1 + max(s for cls in (1, 3) for _, s in tables[cls]))
    for sign, cls in ((1, 3), (-1, 1)):
        for (flat, steep), cnt in tables[cls].items():
            coeffs[steep] += sign * cnt * (4 * n + 1) ** flat * (4 * n) ** (top - flat)
    return coeffs


def _gap_sign(coeffs: list[int], xi: Fraction) -> int:
    """The sign of the balance gap at xi = a/b, b > 0: that of the homogeneous
    Horner sum sum_s C_s a^s b^(S-s), all on integers.

    Increasing xi only raises the steep-tile weights, so the gap is monotone
    in xi and a sign change brackets the balance point.
    """
    a, b = xi.numerator, xi.denominator
    total = 0
    scale = 1  # b^(S-s)
    for c in reversed(coeffs):
        total = total * a + c * scale
        scale *= b
    return (total > 0) - (total < 0)


@lru_cache(maxsize=None)
def solve_delta(n: int) -> Fraction:
    """Balance point delta with equal walk mass below and above the bottleneck.

    Bisection on xi over (gamma, 29.57], which brackets a sign change: at
    xi = gamma the high side is far lighter than the entropy-rich low side,
    while 29.57 > 4e^2 where the corner state alone outweighs the low side.
    Relative tolerance 1e-11; everything is exact rational arithmetic, and
    each sign is taken on integers (``_gap_sign``).
    """
    if n < 4:
        raise ValueError(f"slow-mixing construction needs n >= 4, got {n}")
    coeffs = _gap_coefficients(n, walks.height_profile(n).class_table())
    lo = 1 + Fraction(1, 4 * n)  # gamma
    hi = Fraction(2957, 100)
    if not (_gap_sign(coeffs, lo) < 0 < _gap_sign(coeffs, hi)):
        raise RuntimeError(f"no sign change on the xi bracket for n={n}")
    for _ in range(200):
        mid = (lo + hi) / 2
        if _gap_sign(coeffs, mid) < 0:
            lo = mid
        else:
            hi = mid
        if (hi - lo) / mid <= Fraction(1, 10**11):
            break
    xi = (lo + hi) / 2
    return 1 / (xi + 1)


def slow_mixing_bias(n: int) -> tuple[BiasTable, SlowMixSpec]:
    """Bias table over 2n labels plus its solved parameters."""
    spec = SlowMixSpec(n=n, delta=solve_delta(n))
    table = BiasTable(2 * n, spec.pair_prob)
    return table, spec


# -- model specs for the CLI -------------------------------------------------------


@dataclass(frozen=True)
class Model:
    """A parsed model: kind plus whichever payload the kind uses."""

    kind: str  # constant | cyw | league | slowmix | oned | asep
    n: int | None = None
    p: Fraction | None = None
    cyw: CywSpec | None = None
    tree: LeagueTree | None = None
    slowmix: SlowMixSpec | None = None
    params: tuple = ()

    def bias_table(self, n: int | None = None) -> BiasTable:
        if self.kind == "constant":
            if n is None:
                raise ValueError("constant model needs an explicit n")
            return constant_bias(n, self.p)
        if self.kind == "cyw":
            return choose_your_weapon(self.cyw)
        if self.kind == "league":
            return league_hierarchy(self.tree)
        if self.kind == "slowmix":
            return slow_mixing_bias(self.slowmix.n)[0]
        raise ValueError(f"model {self.kind} has no bias table")


def parse_model_spec(text: str) -> Model:
    """Parse CLI model strings.

    Forms: constant:<p>, cyw:<r1,r2,...>[:max], league:<path-to-tree.json>,
    slowmix:<n>, oned:<r>,<k>, asep:<p>,<k1>,<k2>.
    """
    kind, _, rest = text.partition(":")
    if kind == "constant":
        return Model(kind="constant", p=as_probability(rest))
    if kind == "cyw":
        parts = rest.split(":")
        variant = "min"
        if len(parts) == 2 and parts[1] == "max":
            variant = "max"
        elif len(parts) != 1:
            raise ValueError(f"bad cyw spec: {text}")
        r = [as_probability(x) for x in parts[0].split(",")]
        spec = CywSpec(r=tuple(r), variant=variant)
        return Model(kind="cyw", n=spec.n, cyw=spec)
    if kind == "league":
        with open(rest, "r", encoding="utf-8") as fh:
            tree = LeagueTree.from_json(fh.read())
        return Model(kind="league", n=tree.n, tree=tree)
    if kind == "slowmix":
        half = int(rest)
        spec = SlowMixSpec(n=half, delta=solve_delta(half))
        return Model(kind="slowmix", n=2 * half, slowmix=spec)
    if kind == "oned":
        r_text, k_text = rest.split(",")
        return Model(
            kind="oned",
            params=(as_probability(r_text), int(k_text)),
        )
    if kind == "asep":
        p_text, k1_text, k2_text = rest.split(",")
        return Model(
            kind="asep",
            params=(as_probability(p_text), int(k1_text), int(k2_text)),
        )
    raise ValueError(f"unknown model spec: {text}")
