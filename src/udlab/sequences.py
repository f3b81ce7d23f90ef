"""Sequence families a: N -> R and averaging index-set families.

Families cover the standard zoo: identity, affine, fractional powers,
powers of log, n + log n, the square-root residue n - floor(sqrt n)^2,
the block-constant tower exp(exp(floor(log n))), custom closed-form
expressions in n, composition with an outer function, and real linear
combinations.

Everything evaluates elementwise on integer numpy arrays. The tower
family overflows doubles once floor(log n) >= 7, so its evaluator keeps
base-2 logs of its values and exposes an abs_diff hook and its
log2_abs_diff, taken in those logs. The one pair-difference rule of the
scatter module (scatter._pair_diffs, behind the growth scan and the exact
pair sum) takes that hook, so differences stay meaningful where values
alone saturate to inf; the exact pair sum prices a difference past double
range from the hook's log2_abs_diff.

Specs have a text form (grammar in parse_sequence_spec). One table,
_SEQUENCE_FAMILIES, parses, prints and builds each keyed family, and
spec_to_text prints numbers as integers or by repr, so text it prints
reads back to an equal spec. One more, _INDEX_FAMILIES, parses, sizes and
enumerates each keyed index-set family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import expr as ex

# Derivative floor for the composition diagnostic: the outer function's
# derivative is sampled along the inner sequence and must stay above this.
COMPOSE_DERIVATIVE_FLOOR = 1e-3
_COMPOSE_SAMPLES = 64

MAX_MATERIALIZE = 1 << 26


def check_index_count(count: int) -> None:
    """Refuse more than MAX_MATERIALIZE indices."""
    if count > MAX_MATERIALIZE:
        raise ValueError(f"refusing to materialize {count} indices")


def index_range(N: int, start: int = 1) -> np.ndarray:
    """The indices start..N as an int64 array. N < start, or more than
    MAX_MATERIALIZE indices, is refused before anything is allocated."""
    count = int(N) - start + 1
    if count < 1:
        raise ValueError(f"need N >= {start}, got {N}")
    check_index_count(count)
    return np.arange(start, start + count, dtype=np.int64)


def finite_values(a: Callable, ns: np.ndarray) -> np.ndarray:
    """The values a(ns) as doubles; inf or NaN raises, naming the first n."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        values = np.asarray(a(ns), dtype=float)
    bad = ~np.isfinite(values)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ValueError(f"sequence value at n = {int(ns[k])} is {float(values[k])}, not finite")
    return values


@dataclass(frozen=True)
class SequenceSpec:
    """A named family plus parameters; immutable and hashable."""

    family: str
    params: tuple = ()
    # set by compose(): whether the outer derivative stayed above the floor
    # at all sampled points (None for non-composed specs)
    derivative_diagnostic: Optional[bool] = None


def identity() -> SequenceSpec:
    return SequenceSpec("identity")


def affine(alpha: float, beta: float = 0.0) -> SequenceSpec:
    if alpha == 0.0 and beta == 0.0:
        raise ValueError("affine sequence must not be identically zero")
    return SequenceSpec("affine", (float(alpha), float(beta)))


def power(eps: float) -> SequenceSpec:
    if not eps > 0:
        raise ValueError("power exponent must be positive")
    return SequenceSpec("power", (float(eps),))


def log_power(p: float) -> SequenceSpec:
    if not p > 0:
        raise ValueError("log-power exponent must be positive")
    return SequenceSpec("logpow", (float(p),))


def n_plus_log() -> SequenceSpec:
    return SequenceSpec("nlog")


def sqrt_residue() -> SequenceSpec:
    return SequenceSpec("sqrtres")


def iterated_exp() -> SequenceSpec:
    return SequenceSpec("iterexp")


def custom(formula: Union[str, ex.Node]) -> SequenceSpec:
    node = ex.parse_expr(formula, var="n") if isinstance(formula, str) else formula
    return SequenceSpec("custom", (node,))


def linear_combination(parts: Sequence[Tuple[float, SequenceSpec]]) -> SequenceSpec:
    """Sum of weight_i * a_i(n). The text form cannot nest combos, so a
    combo part is flattened into its entries, each weight scaled by the
    part's, and a part composing a combo is refused. Zero-weight entries
    are dropped; at least one nonzero weight must remain."""
    flat = [(float(w) * v, s) for w, spec in parts
            for v, s in (spec.params if spec.family == "combo" else [(1.0, spec)])]
    if any(_has_combo(s) for _, s in flat):
        raise ValueError("combos cannot nest: a combo part composes a combo")
    kept = tuple((w, spec) for w, spec in flat if w != 0.0)
    if not kept:
        raise ValueError("linear combination needs at least one nonzero weight")
    return SequenceSpec("combo", kept)


def _has_combo(spec: SequenceSpec) -> bool:
    """Whether the spec is a combo or composes one."""
    return spec.family == "combo" or (spec.family == "compose" and _has_combo(spec.params[0]))


def compose(spec: SequenceSpec, outer: Union[str, ex.Node]) -> SequenceSpec:
    """Composed sequence P(a(n)).

    The derivative condition that makes composition preserve scatteredness
    (|P'| bounded below along the sequence) is sampled at 64 values of the
    inner sequence and recorded as a diagnostic flag, not enforced: the
    condition is sufficient, not necessary. Domain errors of P at a sampled
    value do propagate.
    """
    node = ex.parse_expr(outer) if isinstance(outer, str) else outer
    inner_eval = make_sequence(spec)
    ns = np.unique(np.geomspace(1, 1 << 24, _COMPOSE_SAMPLES).astype(np.int64))
    ok = True
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are dropped
        values = np.asarray(inner_eval(ns), dtype=float)
        finite = values[np.isfinite(values)]
        if len(finite):
            derivs = ex.eval_jet_many(node, finite, 1)[1]
            ok = bool(np.min(np.abs(derivs)) > COMPOSE_DERIVATIVE_FLOOR)
    return SequenceSpec("compose", (spec, node), derivative_diagnostic=ok)


# ---------------------------------------------------------------------------
# Evaluation


def _as_index_array(n):
    arr = np.asarray(n)
    if arr.dtype.kind != "i":  # float, or unsigned that may pass int64's range
        if not np.all(np.abs(arr) < 2.0 ** 63):  # also refuses inf and NaN
            raise ValueError("sequence argument must be finite and below 2^63")
        if not np.all(arr == np.floor(arr)):
            raise ValueError("sequence argument must be integral")
        arr = arr.astype(np.int64)
    if np.any(arr < 1):
        raise ValueError("sequence argument must be >= 1")
    return arr.astype(np.int64)


def _isqrt_array(n: np.ndarray) -> np.ndarray:
    s = np.floor(np.sqrt(n.astype(float))).astype(np.int64)
    # float sqrt can be off by one near perfect squares
    s = np.where((s + 1) * (s + 1) <= n, s + 1, s)
    s = np.where(s * s > n, s - 1, s)
    return s


class IteratedExpEvaluator:
    """exp(exp(floor(log n))): block-constant, overflowing doubles from
    block 7 on. Values live in one base-2 log, t_j = e^j / ln 2 for the
    block j = floor(log n); calls are exp2(t) (inf past overflow) and
    abs_diff subtracts in logs."""

    @staticmethod
    def _log2(n) -> np.ndarray:
        n = _as_index_array(n)
        return np.exp(np.floor(np.log(n.astype(float)))) / math.log(2.0)

    def __call__(self, n):
        with np.errstate(over="ignore"):
            return np.exp2(self._log2(n))

    def log2_abs_diff(self, n, m):
        """log2 |a(n) - a(m)|: finite where abs_diff is inf, -inf inside a
        block."""
        tn, tm = self._log2(n), self._log2(m)
        hi = np.maximum(tn, tm)
        with np.errstate(divide="ignore"):
            return hi + np.log2(-np.expm1((np.minimum(tn, tm) - hi) * math.log(2.0)))

    def abs_diff(self, n, m):
        """|a(n) - a(m)| as a double; exact 0 inside a block, inf once the
        true difference leaves double range."""
        with np.errstate(over="ignore"):
            return np.exp2(self.log2_abs_diff(n, m))


def make_sequence(spec: SequenceSpec) -> Callable:
    """Evaluator for the family: a total function on integer n >= 1
    accepting scalars or arrays."""
    family, p = spec.family, spec.params
    closed_form = _SEQUENCE_FAMILIES.get(family, (None, None, None))[2]
    if closed_form is not None:
        return lambda n: closed_form(_as_index_array(n), *p)
    if family == "iterexp":
        return IteratedExpEvaluator()
    if family == "custom":
        (node,) = p
        return lambda n: ex.evaluate(node, _as_index_array(n).astype(float))
    if family == "compose":
        inner_spec, node = p
        inner = make_sequence(inner_spec)
        return lambda n: ex.evaluate(node, np.asarray(inner(n), dtype=float))
    if family == "combo":
        evals = [(w, make_sequence(s)) for w, s in p]
        def _combo(n):
            total = None
            for w, f in evals:
                term = w * np.asarray(f(n), dtype=float)
                total = term if total is None else total + term
            return total
        return _combo
    raise ValueError(f"unknown sequence family '{family}'")


# ---------------------------------------------------------------------------
# Textual spec syntax (CLI surface)


def parse_keyed(text: str, families: Dict[str, tuple], kind: str):
    """Parse "NAME" or "NAME:KEY=VALUE,..." where families maps NAME to
    (constructor, {KEY: default float, or None if required}, ...). Unknown
    names and keys and missing required keys raise ValueError."""
    head, _, rest = (part.strip() for part in text.partition(":"))
    if head not in families:
        raise ValueError(f"unknown {kind} family '{head}'")
    make, defaults = families[head][:2]
    given = {}
    for item in filter(str.strip, rest.split(",")):
        key, sep, value = (part.strip() for part in item.partition("="))
        if not sep or key not in defaults:
            raise ValueError(f"{head}: bad parameter '{item.strip()}'"
                             f" (takes {', '.join(defaults) or 'none'}, as KEY=VALUE)")
        try:
            given[key] = float(value)
        except ValueError:
            raise ValueError(f"{head}: parameter {key}='{value}' is not a number") from None
    missing = [k for k, d in defaults.items() if d is None and k not in given]
    if missing:
        raise ValueError(f"{head}: missing parameter {', '.join(missing)}")
    return make(**{k: given.get(k, d) for k, d in defaults.items()})


# Keyed families: NAME -> (constructor, {KEY: default, None if required, in
# SequenceSpec.params order}, closed form of (int64 index array n, *params),
# or None where make_sequence builds the evaluator itself).
_SEQUENCE_FAMILIES = {
    "identity": (identity, {}, lambda n: n.astype(float)),
    "nlog": (n_plus_log, {}, lambda n: n + np.log(n)),
    "sqrtres": (sqrt_residue, {}, lambda n: (n - _isqrt_array(n) ** 2).astype(float)),
    "iterexp": (iterated_exp, {}, None),
    "affine": (affine, {"alpha": 1.0, "beta": 0.0}, lambda n, alpha, beta: alpha * n + beta),
    "power": (power, {"eps": None}, lambda n, eps: n.astype(float) ** eps),
    # log(1) = 0 and 0**p = 0, so the n=1 convention needs no branch
    "logpow": (log_power, {"p": None}, lambda n, p: np.log(n) ** p),
}


def parse_sequence_spec(text: str) -> SequenceSpec:
    """Parse the CLI syntax: "identity", "affine:alpha=2,beta=1",
    "power:eps=0.5", "logpow:p=2", "nlog", "sqrtres", "iterexp",
    "custom:n + sin(n)/n", "combo:1*identity,-1*logpow:p=2",
    "compose:x^2@identity". A combo entry may not be or compose a combo."""
    text = text.strip()
    head, _, rest = text.partition(":")
    head = head.strip()
    if head == "custom":
        return custom(rest)
    if head == "compose":
        outer_text, sep, inner_text = rest.partition("@")
        if not sep:
            raise ValueError("compose syntax is compose:OUTER_EXPR@INNER_SPEC")
        return compose(parse_sequence_spec(inner_text), outer_text)
    if head == "combo":
        # a comma starts a WEIGHT*SPEC entry when a number follows it, so
        # KEY=VALUE commas stay inside entries (expressions have no comma)
        parts = []
        for piece in rest.split(","):
            w_text, _, spec_text = piece.partition("*")
            try:
                parts.append([float(w_text), spec_text])
            except ValueError:
                if not parts:
                    raise ValueError(f"combo entry '{piece.strip()}' needs WEIGHT*SPEC") from None
                parts[-1][1] += "," + piece
        entries = [(w, parse_sequence_spec(t)) for w, t in parts]
        if any(spec.family == "combo" for _, spec in entries):
            raise ValueError("combos cannot nest: a combo entry is a combo")
        return linear_combination(entries)
    return parse_keyed(text, _SEQUENCE_FAMILIES, "sequence")


def spec_to_text(spec: SequenceSpec) -> str:
    """Inverse of parse_sequence_spec: the text reads back to an equal spec."""
    family, p = spec.family, spec.params
    if family == "custom":
        return f"custom:{ex.to_text(p[0], var='n')}"
    if family == "compose":
        return f"compose:{ex.to_text(p[1])}@{spec_to_text(p[0])}"
    if family == "combo":
        return "combo:" + ",".join(f"{ex._fmt_const(w)}*{spec_to_text(s)}" for w, s in p)
    if family not in _SEQUENCE_FAMILIES:
        raise ValueError(f"unknown sequence family '{family}'")
    keys = _SEQUENCE_FAMILIES[family][1]
    params = ",".join(f"{k}={ex._fmt_const(v)}" for k, v in zip(keys, p))
    return f"{family}:{params}" if params else family


# ---------------------------------------------------------------------------
# Index-set families S_N


@dataclass(frozen=True)
class IndexSetFamily:
    family: str
    params: tuple = ()


def prefixes() -> IndexSetFamily:
    return IndexSetFamily("prefixes")


def geometric(rho: float) -> IndexSetFamily:
    if not rho > 1:
        raise ValueError("geometric ratio must exceed 1")
    return IndexSetFamily("geometric", (float(rho),))


def strided(c: int) -> IndexSetFamily:
    if not (c >= 1 and float(c).is_integer()):
        raise ValueError("stride must be a positive integer")
    return IndexSetFamily("strided", (int(c),))


def custom_nested(sets: Sequence[Sequence[int]]) -> IndexSetFamily:
    """Nonempty, strictly nested S_1 < S_2 < ..., kept as one index order
    (S_1, then each S_N minus S_{N-1}, each part increasing) and the sizes
    |S_N|, so that every S_N is a prefix of the order."""
    order, sizes, previous = [], [], set()
    for s in sets:
        s = set(int(v) for v in s)
        if not previous < s:
            raise ValueError("custom-nested sets must be nonempty and strictly nested")
        order += sorted(s - previous)
        sizes.append(len(s))
        previous = s
    return IndexSetFamily("custom", (tuple(order), tuple(sizes)))


def _geometric_size(N, params: tuple):
    """ceil(rho^N) for an int N, or as doubles for each N of an index array.
    Each power is Python's float pow: NumPy's may differ in the last bit."""
    if np.ndim(N):
        return np.array([_geometric_size(n, params) for n in N.tolist()], dtype=float)
    try:
        return math.ceil(params[0] ** N)
    except OverflowError:
        raise ValueError(f"|S_N| = ceil({params[0]:g}^{N}) exceeds double range") from None


# Keyed index-set families: NAME -> (constructor, {KEY: None (required)},
# |S_N| of (N or an index array, params), index step of params). S_N is the
# first |S_N| multiples of the step.
_INDEX_FAMILIES = {
    "prefixes": (prefixes, {}, lambda N, p: N, lambda p: 1),
    "geometric": (geometric, {"rho": None}, _geometric_size, lambda p: 1),
    "strided": (strided, {"c": None}, lambda N, p: N, lambda p: p[0]),
}


def parse_index_family(text: str) -> IndexSetFamily:
    """Index-set specs: "prefixes", "geometric:rho=R", "strided:c=C"."""
    return parse_keyed(text, _INDEX_FAMILIES, "index-set")


def index_set_size(family: IndexSetFamily, N):
    """|S_N| without materializing the set; for an index array N, |S_N|
    for each of its N."""
    if np.min(N) < 1:
        raise ValueError("N must be >= 1")
    if family.family in _INDEX_FAMILIES:
        return _INDEX_FAMILIES[family.family][2](N, family.params)
    if family.family != "custom":
        raise ValueError(f"unknown index-set family '{family.family}'")
    sizes = family.params[1]
    if np.max(N) > len(sizes):
        raise ValueError(f"custom-nested family has only {len(sizes)} sets")
    return np.asarray(sizes)[np.asarray(N) - 1]


@dataclass(frozen=True)
class IndexSetView:
    """S_N with its size and the running sum of 1/|S_M| for M <= N."""

    N: int
    size: int
    partial_inverse_sum: float
    _family: IndexSetFamily

    def members(self) -> np.ndarray:
        """S_N in the family's index order, in which every S_M is a prefix:
        increasing for the keyed families, S_1 then each S_M minus S_{M-1}
        for custom-nested ones."""
        fam, ks = self._family, index_range(self.size)
        if fam.family == "custom":
            return np.asarray(fam.params[0], dtype=np.int64)[ks - 1]
        return _INDEX_FAMILIES[fam.family][3](fam.params) * ks  # known: its size was computed

    def __iter__(self):
        return iter(self.members())


def index_set_views(family: IndexSetFamily, grid: Sequence[int]) -> List[IndexSetView]:
    """index_sets(family, N) for each N in the grid. The sums of 1/|S_M|
    come from one running sum over M = 1..max(grid), in index order."""
    grid = [int(N) for N in grid]
    partial = np.cumsum(1.0 / index_set_size(family, index_range(max(grid))))  # adds in order
    return [IndexSetView(N, int(index_set_size(family, N)), float(partial[N - 1]), family)
            for N in grid]


def index_sets(family: IndexSetFamily, N: int) -> IndexSetView:
    return index_set_views(family, [N])[0]
