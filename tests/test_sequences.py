import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udlab import expr as ex
from udlab import lab
from udlab import sequences as sq
from udlab import weyl as wy

from test_expr import PARSABLE


class TestFamilies:
    def test_power(self):
        assert sq.make_sequence(sq.power(0.5))(4) == 2.0

    def test_sqrt_residue_pattern(self):
        a = sq.make_sequence(sq.sqrt_residue())
        head = list(a(np.arange(1, 17)))
        assert head == [0, 1, 2, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 5, 6, 0]
        assert a(9) == 0 and a(10) == 1

    def test_sqrt_residue_vanishes_at_squares(self):
        a = sq.make_sequence(sq.sqrt_residue())
        ms = np.arange(1, 1001)
        assert np.all(a(ms * ms) == 0.0)

    def test_n_plus_log_at_one(self):
        assert sq.make_sequence(sq.n_plus_log())(1) == 1.0

    def test_log_power_zero_at_one(self):
        a = sq.make_sequence(sq.log_power(2.0))
        assert a(1) == 0.0
        assert a(2) == pytest.approx(math.log(2) ** 2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sq.power(0.0)
        with pytest.raises(ValueError):
            sq.log_power(-1.0)
        with pytest.raises(ValueError):
            sq.make_sequence(sq.identity())(0)
        with pytest.raises(ValueError):
            sq.make_sequence(sq.identity())(2.5)

    def test_whole_number_float_arguments(self):
        a = sq.make_sequence(sq.power(0.5))
        assert a(np.array([1.0, 4.0, 9.0])).tolist() == [1.0, 2.0, 3.0]
        assert a(np.array([4, 9])).tolist() == [2.0, 3.0]
        assert a(np.array([4, 9], dtype=np.uint64)).tolist() == [2.0, 3.0]

    @pytest.mark.parametrize("n", [np.inf, -np.inf, np.nan, 1e30, -1e30, 2.0 ** 63,
                                   np.uint64(2 ** 63 + 5)])
    def test_non_finite_or_huge_arguments_refused(self, n):
        # the floats were cast to int64 with a RuntimeWarning, then refused
        # as < 1; the unsigned one wrapped to a negative index unwarned
        with pytest.raises(ValueError, match=r"must be finite and below 2\^63"):
            sq.make_sequence(sq.power(0.5))(np.array([4, n], dtype=np.asarray(n).dtype))

    def test_custom_formula(self):
        a = sq.make_sequence(sq.custom("n + sin(n)/n"))
        assert a(3) == pytest.approx(3 + math.sin(3) / 3)

    def test_determinism(self):
        spec = sq.custom("n^2 - cos(n)")
        a1, a2 = sq.make_sequence(spec), sq.make_sequence(spec)
        ns = np.arange(1, 50)
        assert np.array_equal(a1(ns), a2(ns))


class TestIteratedExp:
    def test_block_constancy(self):
        ev = sq.make_sequence(sq.iterated_exp())
        for j in range(0, 5):
            lo, hi = math.ceil(math.exp(j)), math.ceil(math.exp(j + 1))
            vals = ev(np.arange(lo, hi))
            assert np.all(vals == vals[0])

    def test_small_values(self):
        ev = sq.make_sequence(sq.iterated_exp())
        assert ev(1) == pytest.approx(math.e)
        assert ev(3) == pytest.approx(math.exp(math.e), rel=1e-12)

    def test_exact_differences(self):
        ev = sq.make_sequence(sq.iterated_exp())
        assert ev.abs_diff(3, 5) == 0.0  # same block
        expect = math.exp(math.exp(2)) - math.exp(math.exp(1))
        assert ev.abs_diff(3, 8) == pytest.approx(expect, rel=1e-12)
        assert ev.abs_diff(3, 9000) == math.inf  # beyond double range

    def test_log2_differences(self):
        ev = sq.make_sequence(sq.iterated_exp())
        assert ev.log2_abs_diff(3, 5) == -math.inf  # same block
        expect = math.exp(math.exp(2)) - math.exp(math.exp(1))
        assert ev.log2_abs_diff(3, 8) == pytest.approx(math.log2(expect), rel=1e-14)
        # a(9000) = exp(e^9) dwarfs a(3); log2 is e^9/ln 2
        assert ev.log2_abs_diff(3, 9000) == pytest.approx(math.exp(9) / math.log(2),
                                                          rel=1e-14)

    def test_overflow_is_inf_not_garbage(self):
        ev = sq.make_sequence(sq.iterated_exp())
        assert ev(5000) == math.inf


class TestComposition:
    def test_values(self):
        c = sq.compose(sq.identity(), "x^2")
        assert sq.make_sequence(c)(3) == 9.0
        c = sq.compose(sq.identity(), "x + 1")
        assert sq.make_sequence(c)(5) == 6.0

    def test_derivative_diagnostic(self):
        assert sq.compose(sq.identity(), "x^2").derivative_diagnostic is True
        assert sq.compose(sq.identity(), "x + 1").derivative_diagnostic is True
        # |d/dx log| -> 0 along n^0.5: flag records the failed condition
        c = sq.compose(sq.power(0.5), "log(x)")
        assert c.derivative_diagnostic is False
        assert sq.make_sequence(c)(4) == pytest.approx(math.log(2.0))

    def test_domain_error_propagates(self):
        combo = sq.linear_combination([(1.0, sq.identity())])
        shifted = sq.custom("n - 10")  # hits negatives on sampled values
        with pytest.raises(ValueError):
            sq.compose(shifted, "log(x)")

    def test_inner_values_past_double_range_build_quietly(self):
        # the samples overflow and are dropped; RuntimeWarning is an error here
        for inner in [sq.iterated_exp(), sq.power(50)]:
            c = sq.compose(inner, "x^2")
            # the jet of x^2 keeps its derivative finite past sqrt of double range
            assert c.derivative_diagnostic is True
            assert sq.make_sequence(c)(2) == sq.make_sequence(inner)(2) ** 2


class TestLinearCombination:
    def test_values(self):
        lc = sq.linear_combination([(1.0, sq.identity()), (1.0, sq.log_power(1.0))])
        assert sq.make_sequence(lc)(3) == pytest.approx(3 + math.log(3))
        lc = sq.linear_combination([(1.0, sq.identity()), (-1.0, sq.identity())])
        assert sq.make_sequence(lc)(5) == 0.0
        lc = sq.linear_combination([(2.0, sq.power(0.5))])
        assert sq.make_sequence(lc)(9) == 6.0

    def test_single_unit_part_is_extensional_identity(self):
        inner = sq.log_power(2.0)
        lc = sq.linear_combination([(1.0, inner)])
        ns = np.arange(1, 201)
        assert np.array_equal(sq.make_sequence(lc)(ns), sq.make_sequence(inner)(ns))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            sq.linear_combination([(0.0, sq.identity()), (0.0, sq.power(1.0))])

    def test_combo_part_is_flattened(self):
        inner = sq.linear_combination([(1.0, sq.identity()), (3.0, sq.n_plus_log())])
        lc = sq.linear_combination([(2.0, inner), (1.0, sq.sqrt_residue())])
        assert lc == sq.linear_combination([(2.0, sq.identity()), (6.0, sq.n_plus_log()),
                                            (1.0, sq.sqrt_residue())])

    def test_part_composing_a_combo_rejected(self):
        inner = sq.linear_combination([(2.0, sq.identity()), (3.0, sq.n_plus_log())])
        with pytest.raises(ValueError, match="combos cannot nest"):
            sq.linear_combination([(1.0, sq.compose(inner, "x + 1"))])


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def keyed(finite, positive):
    return st.one_of(
        st.sampled_from([sq.identity(), sq.n_plus_log(), sq.sqrt_residue(),
                         sq.iterated_exp()]),
        st.tuples(finite, finite).filter(lambda ab: ab != (0.0, 0.0)).map(
            lambda ab: sq.affine(*ab)),
        st.builds(sq.power, positive),
        st.builds(sq.log_power, positive))


# Every keyed family with any finite parameters.
KEYED = keyed(FINITE, POSITIVE)
# compose() evaluates the inner sequence and the outer derivative at n up to
# 2^24, and a value past double range warns. So composed specs draw bounded
# inner parameters and a linear outer (iterexp alone reaches 1e175 there).
COMPOSED = st.builds(sq.compose,
                     keyed(st.floats(-1e6, 1e6), st.floats(1e-6, 8.0)),
                     st.sampled_from(["3*x - 1", "x + 0.25", "-2*x"]))
SIMPLE = st.one_of(KEYED, PARSABLE.map(sq.custom), COMPOSED)


def _combination(parts):
    """linear_combination(parts), or None when no weight is left nonzero
    (a product of flattened weights can underflow to 0)."""
    try:
        return sq.linear_combination(parts)
    except ValueError:
        return None


def combos(part):
    return st.lists(st.tuples(FINITE, part), min_size=1, max_size=4).map(
        _combination).filter(lambda spec: spec is not None)


# Combos whose parts may themselves be combos, which flatten.
SPECS = st.one_of(SIMPLE, combos(st.one_of(SIMPLE, combos(SIMPLE))))


class TestSpecSyntax:
    ROUND_TRIPS = ["identity", "power:eps=0.5", "logpow:p=2", "nlog", "sqrtres",
                   "iterexp", "affine:alpha=2,beta=1",
                   "combo:1*identity,-1*logpow:p=2",
                   "combo:2*power:eps=0.5,-0.5*affine:alpha=2,beta=0",
                   "custom:n + sin(n)/n", "compose:x^2@identity"]

    @pytest.mark.parametrize("text", ROUND_TRIPS)
    def test_round_trip(self, text):
        spec = sq.parse_sequence_spec(text)
        assert sq.spec_to_text(spec) == text
        assert sq.parse_sequence_spec(sq.spec_to_text(spec)) == spec

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(spec=SPECS)
    def test_printed_spec_reads_back_equal(self, spec):
        assert sq.parse_sequence_spec(sq.spec_to_text(spec)) == spec

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(prods=st.lists(st.tuples(SPECS, FINITE), min_size=1, max_size=3),
           towers=st.lists(KEYED, max_size=2))
    def test_generator_description_reads_back(self, prods, towers):
        # x = 0.5: c*x stays finite for every finite c, and the base 1 + x exceeds 1
        coords = [wy.ProductCoord(s, ex.Mul(ex.Const(c), ex.Var()), 0.5) for s, c in prods]
        coords += [wy.TowerCoord(ex.parse_expr("1 + x"), b, 0.5) for b in towers]
        gen = wy.PointGenerator(coords)
        again = lab.parse_generator("x=0.5; " + gen.describe())
        assert again.describe() == gen.describe()

        def parts(g):
            return [(c.seq_spec, c.f) if isinstance(c, wy.ProductCoord) else (c.g, c.b_spec)
                    for c in g.coords]
        assert parts(again) == parts(gen)

    def test_bad_specs(self):
        for bad in ["wat", "power:eps=0", "combo:identity", "compose:x^2",
                    "power:", "logpow:", "power:eps", "power:eps=x",
                    "affine:alpah=2", "affine:alpha=2,gamma=1", "identity:alpha=1",
                    "combo:1*combo:2*identity,5*identity,3*nlog",  # combos cannot nest
                    "combo:1*compose:x + 1@combo:2*identity"]:
            with pytest.raises(ValueError):
                sq.parse_sequence_spec(bad)

    def test_key_value_parameters(self):
        families = {"affine": (lambda alpha, beta: (alpha, beta), {"alpha": 1.0, "beta": 0.0}),
                    "power": (lambda eps: eps, {"eps": None})}
        assert sq.parse_keyed(" affine : beta = 2 ", families, "test") == (1.0, 2.0)
        assert sq.parse_sequence_spec("affine:beta=2") == sq.affine(1.0, 2.0)
        with pytest.raises(ValueError, match="bad parameter 'alpah=2'"):
            sq.parse_keyed("affine:alpah=2", families, "test")
        with pytest.raises(ValueError, match="missing parameter eps"):
            sq.parse_keyed("power:", families, "test")
        with pytest.raises(ValueError, match="unknown test family 'wat'"):
            sq.parse_keyed("wat:eps=1", families, "test")


class TestIndexSets:
    def test_prefixes(self):
        view = sq.index_sets(sq.prefixes(), 3)
        assert list(view) == [1, 2, 3]
        assert view.partial_inverse_sum == pytest.approx(1 + 0.5 + 1 / 3)

    def test_geometric(self):
        view = sq.index_sets(sq.geometric(2.0), 3)
        assert view.size == 8
        assert list(view.members()) == list(range(1, 9))

    def test_strided(self):
        assert list(sq.index_sets(sq.strided(2), 3)) == [2, 4, 6]

    def test_nesting_for_builtin_families(self):
        for family in (sq.prefixes(), sq.geometric(1.5), sq.strided(3)):
            for N in range(1, 12):
                a = set(sq.index_sets(family, N).members())
                b = set(sq.index_sets(family, N + 1).members())
                assert a < b or (family.family == "geometric" and a <= b)

    def test_geometric_sizes_strictly_grow_eventually(self):
        sizes = [sq.index_set_size(sq.geometric(2.0), N) for N in range(1, 10)]
        assert sizes == sorted(sizes) and sizes[-1] == 512

    def test_custom_nested_validation(self):
        fam = sq.custom_nested([[1], [1, 4], [1, 4, 9]])
        assert list(sq.index_sets(fam, 2)) == [1, 4]
        with pytest.raises(ValueError):
            sq.custom_nested([[1, 2], [1, 3]])

    def test_custom_nested_index_order(self):
        # every S_N is a prefix of one order: S_1, then each S_N minus S_{N-1}
        fam = sq.custom_nested([[5, 2], [9, 1, 2, 5], [7, 1, 2, 5, 9, 3]])
        assert [list(sq.index_sets(fam, N)) for N in (1, 2, 3)] == \
            [[2, 5], [2, 5, 1, 9], [2, 5, 1, 9, 3, 7]]
        assert [sq.index_set_size(fam, N) for N in (1, 2, 3)] == [2, 4, 6]
        with pytest.raises(ValueError):
            sq.custom_nested([[], [1]])

    def test_geometric_size_past_double_range_raises(self):
        assert sq.index_set_size(sq.geometric(2.0), 1023) == 2 ** 1023
        with pytest.raises(ValueError, match="double range"):
            sq.index_set_size(sq.geometric(2.0), 1024)
        # the running sum over an index array stops at the same N, with no
        # overflow RuntimeWarning
        with pytest.raises(ValueError, match=r"ceil\(2\^1024\) exceeds double range"):
            sq.index_set_views(sq.geometric(2.0), [3, 1100])

    def test_views_equal_scalar_sizes_and_running_sum(self):
        # the views evaluate |S_M| on an index array; NumPy's power differs
        # from float pow in the last bit at dozens of these N
        fam, running = sq.geometric(1.1), 0.0
        for N, view in enumerate(sq.index_set_views(fam, range(1, 1501)), start=1):
            running += 1.0 / sq.index_set_size(fam, N)
            assert (view.size, view.partial_inverse_sum) == (sq.index_set_size(fam, N), running)

    def test_size_without_materializing(self):
        # 2^200 elements: size is computable, materializing would be absurd
        fam = sq.geometric(2.0)
        assert sq.index_set_size(fam, 200) == 2 ** 200
        with pytest.raises(ValueError):
            sq.index_sets(fam, 200).members()

    def test_inverse_size_sum_diagnostic(self):
        # geometric family: sum of 1/|S_N| converges; prefixes: harmonic
        geo = sq.index_sets(sq.geometric(2.0), 30).partial_inverse_sum
        assert geo < 2.0
        pre = sq.index_sets(sq.prefixes(), 30).partial_inverse_sum
        assert pre == pytest.approx(sum(1 / n for n in range(1, 31)))


class TestIndexCount:
    def test_indices_start_to_N(self):
        assert sq.index_range(5).tolist() == [1, 2, 3, 4, 5]
        assert sq.index_range(5, 2).tolist() == [2, 3, 4, 5]
        assert sq.index_range(5).dtype == np.int64

    def test_refuses_N_below_start(self):
        with pytest.raises(ValueError, match="need N >= 1, got 0"):
            sq.index_range(0)
        with pytest.raises(ValueError, match="need N >= 2, got 1"):
            sq.index_range(1, 2)

    def test_refuses_past_the_cap_before_allocating(self):
        with pytest.raises(ValueError, match=f"refusing to materialize {2 ** 26 + 1} indices"):
            sq.index_range(2 ** 26 + 1)
        with pytest.raises(ValueError, match="refusing to materialize"):
            sq.index_range(10 ** 15)

    def test_index_set_views_cap_max_grid_not_set_size(self):
        # the running sum of 1/|S_M| used to loop 2^41 times
        with pytest.raises(ValueError, match="refusing to materialize"):
            sq.index_set_views(sq.prefixes(), [8, 2 ** 41])
        with pytest.raises(ValueError, match="N must be >= 1"):
            sq.index_set_views(sq.prefixes(), [0, 8])
        with pytest.raises(ValueError, match="custom-nested family has only 2 sets"):
            sq.index_set_views(sq.custom_nested([[1], [1, 2]]), [1, 3])
        assert sq.index_sets(sq.geometric(2.0), 30).size == 2 ** 30


class TestFiniteValues:
    def test_names_the_first_non_finite_n(self):
        # n^200 is finite up to n = 34 and inf from n = 35
        a = sq.make_sequence(sq.power(200.0))
        assert np.all(np.isfinite(sq.finite_values(a, sq.index_range(34))))
        with pytest.raises(ValueError, match="at n = 35 is inf, not finite"):
            sq.finite_values(a, np.arange(30, 40))

    def test_nan_is_refused(self):
        with pytest.raises(ValueError, match="at n = 3 is nan"):
            sq.finite_values(lambda n: np.where(n == 3, np.nan, 1.0), np.arange(1, 6))
