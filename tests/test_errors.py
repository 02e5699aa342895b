"""`errors.integers` and `errors.reals`, the package's two argument checks, and
the public calls they guard."""

import math

import numpy as np
import pytest

from percolate import (
    BoxSpec,
    CffpRealization,
    DomainError,
    LazyRealization,
    Model,
    ModelConfig,
    ModelParams,
    SampledGraph,
    aggregate_weight,
    bk_brute_force,
    bk_brute_force_k,
    couple_alpha,
    fit_distance_exponent,
    fit_shape_constant,
    fkt_h_functional,
    fpp_cffp_edge_check,
    mc_ball_growth,
    mc_tail_grid,
    sample_graph,
    sample_weights,
    shape_containment,
    shape_radii,
    sum_exp_tail,
    tail_bound_lrp,
    tail_bound_sfp,
    weight_dominance_test,
    wilson_interval,
)
from percolate.cli import main
from percolate.errors import integers, reals
from percolate.estimators import (GrowthSeries, LogLinearFit, StretchedFit,
                                  fit_selfbound_constant)
from percolate.kernels import BoundConstants
from percolate.metrics import hop_distances_from


class TestIntegers:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), np.int32(3), np.array(3)])
    def test_integer_scalars_come_back_as_python_ints(self, value):
        got = integers("k", value)
        assert got == 3 and type(got) is int

    def test_bools_are_integers(self):
        assert integers("d", True, 1) == 1 and integers("k", False) == 0

    @pytest.mark.parametrize("value", [[1, 2], (1, 2), np.array([1, 2], dtype=np.uint16),
                                       np.array([[0], [4]], dtype=np.int32)])
    def test_integer_arrays_come_back_as_int64_in_their_shape(self, value):
        got = integers("ks", value, 0, 5)
        assert got.dtype == np.int64 and got.shape == np.shape(value)
        assert got.tolist() == np.asarray(value).tolist()

    def test_an_int64_array_is_returned_as_it_is(self):
        ks = np.arange(4)
        assert integers("ks", ks) is ks

    def test_an_empty_sequence_passes(self):
        for value in ([], (), np.empty(0, dtype=np.int64)):
            got = integers("ks", value)
            assert got.dtype == np.int64 and got.size == 0

    @pytest.mark.parametrize("value", [2.0, 2.5, np.float64(2.0), math.nan, "2", None,
                                       np.True_, np.array(True), np.array([True, False]),
                                       [2.0], np.array([1.0]), ["1"]])
    def test_non_integers_are_refused(self, value):
        with pytest.raises(DomainError, match="^the depth must be"):
            integers("the depth", value)

    @pytest.mark.parametrize("value, low, high", [
        (-1, 0, None), (0, 1, None), (5, 0, 5), (-1, 0, 5), (2**63, None, None),
        (-2**63 - 1, None, None), ([0, 5], 0, 5), ([-1, 2], 0, 5), (np.array([1]), 2, None),
        (np.array([2**63], dtype=np.uint64), 0, None),
    ])
    def test_values_out_of_range_are_refused(self, value, low, high):
        with pytest.raises(DomainError, match="^x must be"):
            integers("x", value, low, high)

    def test_bounds_are_inclusive_below_and_exclusive_above(self):
        assert integers("v", 0, 0, 5) == 0 and integers("v", 4, 0, 5) == 4
        assert integers("o", -7, None) == -7

    @pytest.mark.parametrize("args, message", [
        (("k", 1.5), "k must be a nonnegative integer, got 1.5"),
        (("r", 0, 1), "r must be a positive integer, got 0"),
        (("vertex id", 5, 0, 5), "vertex id must be an integer in [0, 5), got 5"),
        (("k0", 1, 2), "k0 must be an integer >= 2, got 1"),
        (("origin", 0.5, None), "origin must be an integer, got 0.5"),
        (("ks", [1.5]), "ks must be nonnegative integers, got [1.5]"),
        (("frontier", [-1], 0, 8), "frontier must be integers in [0, 8), got [-1]"),
    ])
    def test_the_message_names_the_argument_and_its_range(self, args, message):
        with pytest.raises(DomainError) as err:
            integers(*args)
        assert str(err.value) == message


class TestReals:
    @pytest.mark.parametrize("ends", ["[]", "(]", "[)", "()"])
    def test_nan_lies_in_no_interval(self, ends):
        for low, high in ((0, 1), (-math.inf, math.inf), (0, math.inf)):
            with pytest.raises(DomainError, match="got nan$"):
                reals("x", math.nan, low, high, ends)
            with pytest.raises(DomainError, match="got nan$"):
                reals("x", np.array([0.5, math.nan]), low, high, ends)

    def test_infinities_lie_only_in_closed_infinite_ends(self):
        assert reals("t", math.inf, 0) == math.inf
        assert reals("t", -math.inf, -math.inf, 0) == -math.inf
        for value, low, high, ends in [(math.inf, 0, math.inf, "[)"), (-math.inf, 0, math.inf, "[]"),
                                       (-math.inf, -math.inf, math.inf, "()")]:
            with pytest.raises(DomainError):
                reals("t", value, low, high, ends)

    @pytest.mark.parametrize("value, ends, inside", [
        (1, "[]", True), (1, "[)", True), (1, "(]", False), (1, "()", False),
        (2, "[]", True), (2, "(]", True), (2, "[)", False), (2, "()", False),
        (1.5, "()", True),
    ])
    def test_each_end_is_open_or_closed(self, value, ends, inside):
        for given in (value, np.float64(value), np.array([1.5, value])):
            if inside:
                assert reals("x", given, 1, 2, ends) is given
            else:
                with pytest.raises(DomainError):
                    reals("x", given, 1, 2, ends)

    def test_values_come_back_unchanged(self):
        for value in (3, 2.5, np.float32(2.5), np.int64(3), [1.0, 2.0], (1, 2), np.arange(3),
                      np.ones((2, 2)), np.empty(0), []):
            assert reals("x", value, 0) is value

    @pytest.mark.parametrize("value", ["2", None, [1j], [["a"]], object()])
    def test_non_numbers_are_refused(self, value):
        with pytest.raises(DomainError, match="^x must be nonnegative, got "):
            reals("x", value, 0)

    @pytest.mark.parametrize("args, message", [
        (("t", math.nan, 0), "t must be nonnegative, got nan"),
        (("eps", 0.0, 0, math.inf, "(]"), "eps must be positive, got 0.0"),
        (("cap", math.inf, 0, math.inf, "[)"), "cap must be nonnegative and finite, got inf"),
        (("step", -1, 0, math.inf, "()"), "step must be positive and finite, got -1"),
        (("alpha", 2.0, 1, 2, "()"), "alpha must be a number in (1, 2), got 2.0"),
        (("dist", 0.5, 1), "dist must be a number in [1, inf], got 0.5"),
        (("probs", [0.5, 1.5, -1.0, math.nan], 0, 1), "probs must be a number in [0, 1], got 1.5"),
        (("u", np.array([[0.0, 0.5], [1.0, 0.2]]), 0, 1, "[)"),
         "u must be a number in [0, 1), got 1.0"),
        (("c", math.inf, -math.inf, math.inf, "()"), "c must be a number in (-inf, inf), got inf"),
        (("x", "2", 0), "x must be nonnegative, got '2'"),
    ])
    def test_the_message_names_the_argument_its_range_and_the_first_bad_value(self, args,
                                                                                message):
        with pytest.raises(DomainError) as err:
            reals(*args)
        assert str(err.value) == message


def _lrp(side=33, lam=0.3):
    return ModelConfig(box=BoxSpec(d=1, side=side),
                       params=ModelParams(d=1, alpha=1.5, tau=math.inf, lam=lam),
                       model=Model.LRP, metric="hop")


def _series():
    return GrowthSeries(thresholds=(0.5, 1.0), mean_sizes=(2.0, 4.0),
                        loglinear=LogLinearFit(0.0, 0.0, 1.0, (0.0,)),
                        stretched=StretchedFit(0.0, 0.0, 1.0, 1.0))


def _frontier_of_minus_one():
    real = LazyRealization(BoxSpec(d=1, side=8), _lrp().params, Model.LRP, 1)
    return real.frontier_neighbors([-1], np.ones(8, dtype=bool))


def _search_to(targets):
    real = LazyRealization(BoxSpec(d=1, side=8), _lrp().params, Model.LRP, 1)
    return hop_distances_from(real, 0, 2, targets=targets)


_EXP = ModelParams(d=1, alpha=1.5, tau=4.0, lam=1.0)

# Integer arguments given a non-integer or out-of-range value, and the name
# the error must carry.  Each call once truncated, wrapped or failed elsewhere.
REFUSED = [
    ("wilson-trials-2.5", "trials", lambda: wilson_interval(1, 2.5)),
    ("wilson-successes-0.5", "successes", lambda: wilson_interval(0.5, 3)),
    ("weights-n-2.5", "n", lambda: sample_weights(2.5, 3.0, 1)),
    ("frontier-minus-1", "frontier", _frontier_of_minus_one),
    ("targets-minus-1", "vertex id", lambda: _search_to([3, -1])),
    ("targets-n", "vertex id", lambda: _search_to([8])),
    ("targets-1.5", "vertex id", lambda: _search_to([1.5])),
    ("shape-fit-k0-1.5", "k0", lambda: fit_shape_constant(_lrp(), 16, 1.5, 1.5, 2, 1)),
    ("shape-ks-1.5", "ks", lambda: shape_containment(_lrp(), 16, [1.5], lambda k: 1.0, 2, 1)),
    ("shape-ks-2.0", "ks", lambda: shape_containment(_lrp(), 16, [2.0], lambda k: 1.0, 2, 1)),
    ("sum-exp-d-1.5", "d", lambda: sum_exp_tail([1.0], 1.0, 10, 1, 1.2, 1.5, [1.0])),
    ("fkt-d-1.5", "d", lambda: fkt_h_functional(_series(), 1.0, 1.2, 1.5, 1.0)),
    ("selfbound-d-1.5", "d", lambda: fit_selfbound_constant(_series(), 1.2, 1.5)),
    ("bk-n-edges-2.5", "n_edges",
     lambda: bk_brute_force_k(2.5, [0.5, 0.5], [lambda s: s[0], lambda s: s[1]])),
    ("tail-trials-2.5", "trials", lambda: mc_tail_grid(_lrp(), 16, [20], [1], 2.5, 1)),
    ("growth-trials-2.5", "trials", lambda: mc_ball_growth(_lrp(), 16, [1, 2], 2.5, 1)),
    ("sum-exp-trials-2.5", "trials", lambda: sum_exp_tail([1.0], 1.0, 2.5, 1, 1.2, 1, [1.0])),
    ("edge-check-trials-2.5", "trials",
     lambda: fpp_cffp_edge_check(1.0, 1.0, 2.0, 1.0, 2.5, 1, _EXP)),
    ("weight-dominance-trials-2.5", "trials",
     lambda: weight_dominance_test(4.0, 3.4, 1.0, 2, 1, 1.0, 2.5, 5)),
]


@pytest.mark.parametrize("name, what, call", REFUSED, ids=[row[0] for row in REFUSED])
def test_integer_arguments_are_refused_by_name(name, what, call):
    with pytest.raises(DomainError, match=f"^{what} must be"):
        call()


_LRP_15 = ModelParams(d=1, alpha=1.5, tau=math.inf, lam=0.1)
_SEED_CALLS = {
    "sample_graph": lambda seed: sample_graph(BoxSpec(d=1, side=16), _LRP_15, Model.LRP, seed),
    "sample_weights": lambda seed: sample_weights(4, 3.0, seed),
    "mc_tail_grid": lambda seed: mc_tail_grid(_lrp(), 16, [20], [1], 2, seed),
    "couple_alpha": lambda seed: couple_alpha(BoxSpec(d=1, side=16), _LRP_15, 1.2, seed),
    "CffpRealization": lambda seed: CffpRealization(box=BoxSpec(d=1, side=5), weights=np.ones(5),
                                                    params=_EXP, seed=seed),
    "SampledGraph": lambda seed: SampledGraph(Model.LRP, np.zeros((2, 1)), np.ones(2), [(0, 1)],
                                              seed, _LRP_15),
}

# Real arguments given NaN, fractional hop counts and seeds outside [0, 2^64),
# and the name the error must carry.  Each call once returned a number, wrapped
# or kept the seed, or failed with a TypeError.
REFUSED_REALS = [
    ("sum-exp-dists-nan", "dists", lambda: sum_exp_tail([1.0], 1.0, 10, 1, 1.5, 1, [math.nan])),
    ("sum-exp-rates-nan", "rates", lambda: sum_exp_tail([math.nan], 1.0, 10, 1, 1.5, 1, [2.0])),
    ("aggregate-weights-nan", "weights", lambda: aggregate_weight([math.nan, 2.0], 1.5, 2, 1)),
    ("bk-probs-nan", "probs",
     lambda: bk_brute_force(1, [math.nan], lambda s: s[0], lambda s: s[0])),
    ("tail-lrp-k-1.5", "k", lambda: tail_bound_lrp(1.5, 2.0, 0.1, _LRP_15)),
    ("tail-sfp-k-1.5", "k", lambda: tail_bound_sfp(1.5, 2.0, BoundConstants(1.0, 1.0, 1.0),
                                                   ModelParams(d=1, alpha=1.5, tau=4.0, lam=1.0))),
    ("shape-radii-k-1.5", "k", lambda: shape_radii(1.5, 0.5, 0.1)),
    ("distance-fit-median-nan", "median",
     lambda: fit_distance_exponent([(10, 5), (30, 11), (100, math.nan), (1000, 45)])),
    ("cffp-weights-nan", "weights",
     lambda: CffpRealization(box=BoxSpec(d=1, side=3), weights=np.array([1.0, math.nan, 1.0]),
                             params=_EXP, seed=1)),
] + [(f"{name}-seed-{seed}", "seed", lambda call=call, seed=seed: call(seed))
     for name, call in _SEED_CALLS.items() for seed in (2**64 + 1, -1, 1.5)]


@pytest.mark.parametrize("name, what, call", REFUSED_REALS, ids=[row[0] for row in REFUSED_REALS])
def test_real_arguments_hop_counts_and_seeds_are_refused_by_name(name, what, call):
    with pytest.raises(DomainError, match=f"^{what} must be"):
        call()


@pytest.mark.parametrize("line", [
    # a negative seed was wrapped to 2^64 - 1, and -1 went into the file's header
    "generate --model lrp --d 1 --L 16 --alpha 1.5 --lambda 0.3 --seed -1 --out {out}",
    # the LRP hop bound rounded the cost thresholds 1.5 and 2.5 to hop counts 1 and 2
    "tail --metric fpp --model lrp --d 1 --L 33 --alpha 1.5 --lambda 0.05 --source 8 "
    "--targets 12 --thresholds 1.5,2.5 --trials 5 --seed 1 --bound lrp --out {out}",
    # the hop threshold 1.5 was truncated to 1 before the bound saw it
    "tail --model lrp --d 1 --L 33 --alpha 1.5 --lambda 0.05 --source 8 --targets 12 "
    "--thresholds 1.5 --trials 5 --seed 1 --bound lrp --out {out}",
])
def test_the_cli_refuses_a_negative_seed_and_fractional_hop_counts(tmp_path, capsys, line):
    out = tmp_path / "out.txt"
    assert main(line.format(out=out).split()) == 1
    assert not out.exists() and capsys.readouterr().out == ""
