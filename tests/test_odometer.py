import itertools
import math
import operator
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from odoshift import errors
from odoshift import odometer as od
from oracles import factorized_cf_contains, parse_cf

PRIMES = (2, 3, 5, 7, 11, 13)

cf_sets = st.dictionaries(
    keys=st.sampled_from(PRIMES),
    values=st.one_of(st.integers(min_value=1, max_value=6), st.just(od.INFINITY)),
    max_size=4,
).map(od.CFSet)


class TestCFSet:
    def test_rejects_composite_keys(self):
        with pytest.raises(errors.InvalidInputError):
            od.CFSet({4: 1})

    def test_zero_exponents_normalized_away(self):
        assert od.CFSet({2: 0, 3: 1}).exponents == {3: 1}

    def test_contains_examples(self):
        assert od.cf_contains(od.CFSet({2: od.INFINITY}), 8)
        assert not od.cf_contains(od.CFSet({2: od.INFINITY}), 6)
        assert od.cf_contains(od.CFSet({2: 3, 3: 1}), 24)
        assert not od.cf_contains(od.CFSet({2: 3, 3: 1}), 48)
        with pytest.raises(errors.InvalidInputError):
            od.cf_contains(od.CFSet({}), 0)

    def test_large_primes_are_not_factorized(self):
        # trial division up to sqrt(n) would take minutes on 2^61 - 1
        big = (1 << 61) - 1
        start = time.perf_counter()
        assert not od.cf_contains(od.CFSet({2: od.INFINITY}), big)
        assert not od.cf_contains(od.CFSet({2: od.INFINITY, 3: 5}), 10**14 + 31)
        assert od.cf_contains(od.CFSet({2: od.INFINITY}), 1 << 200)
        assert time.perf_counter() - start < 0.01

    @given(cf=cf_sets, n=st.integers(min_value=1, max_value=1 << 40))
    def test_contains_matches_factorization(self, cf, n):
        assert od.cf_contains(cf, n) == factorized_cf_contains(cf, n)

    @given(
        cf=cf_sets,
        exponents=st.lists(st.integers(min_value=0, max_value=8), min_size=6, max_size=6),
    )
    def test_contains_matches_factorization_on_smooth_numbers(self, cf, exponents):
        # products of the primes the sets use, so membership is often true
        n = math.prod(p**e for p, e in zip(PRIMES, exponents))
        assert od.cf_contains(cf, n) == factorized_cf_contains(cf, n)

    @given(cf=cf_sets)
    def test_one_is_always_a_member(self, cf):
        assert od.cf_contains(cf, 1)

    @given(cf=cf_sets, n=st.integers(min_value=1, max_value=5000))
    def test_divisor_closed(self, cf, n):
        if od.cf_contains(cf, n):
            assert all(od.cf_contains(cf, d) for d in range(1, n + 1) if n % d == 0)

    @given(cf=cf_sets, x=st.integers(min_value=1, max_value=400), y=st.integers(min_value=1, max_value=400))
    def test_lcm_closed(self, cf, x, y):
        if od.cf_contains(cf, x) and od.cf_contains(cf, y):
            assert od.cf_contains(cf, x * y // math.gcd(x, y))

    def test_subset_examples(self):
        assert od.cf_subset(od.CFSet({2: od.INFINITY}), od.CFSet({2: od.INFINITY, 3: 1}))
        assert not od.cf_subset(od.CFSet({2: od.INFINITY}), od.CFSet({2: 5}))

    @given(a=cf_sets, b=cf_sets)
    def test_factor_antisymmetry(self, a, b):
        if od.cf_subset(a, b) and od.cf_subset(b, a):
            assert od.cf_equal(a, b)

    def test_text_round_trip(self):
        for cf in (od.CFSet({}), od.CFSet({2: od.INFINITY, 3: 2}), od.CFSet({7: 1})):
            assert od.cf_equal(parse_cf(od.cf_to_text(cf)), cf)
        assert od.cf_to_text(od.CFSet({2: od.INFINITY, 3: 2})) == "2^inf*3^2"
        assert od.cf_to_text(od.CFSet({})) == "1"

    @given(cf=cf_sets)
    def test_text_round_trip_random(self, cf):
        assert od.cf_equal(parse_cf(od.cf_to_text(cf)), cf)


class TestCFClosure:
    def test_power_family(self):
        assert od.cf_closure([od.PowerFamily(2)]).exponents == {2: od.INFINITY}

    def test_finite_generators(self):
        assert od.cf_closure([6, 10]).exponents == {2: 1, 3: 1, 5: 1}

    def test_trivial_generator(self):
        assert od.cf_closure([1]).exponents == {}

    def test_rejects_garbage(self):
        with pytest.raises(errors.InvalidInputError):
            od.cf_closure(["2^k"])
        with pytest.raises(errors.InvalidInputError):
            od.cf_closure([])

    @given(gens=st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=5))
    def test_closure_contains_generators_and_lcms(self, gens):
        cf = od.cf_closure(gens)
        assert all(od.cf_contains(cf, g) for g in gens)
        assert od.cf_contains(cf, math.lcm(*gens))


class TestOdometerSpec:
    def test_ones_normalized_away(self):
        assert od.OdometerSpec(repeat=(1, 6, 1)).repeat == (6,)

    def test_rejects_small_factors(self):
        with pytest.raises(errors.InvalidInputError):
            od.OdometerSpec(repeat=(2, 0))

    @pytest.mark.parametrize("repeat", [(), (1,), (1, 1)])
    def test_rejects_no_factor(self, repeat):
        with pytest.raises(errors.InvalidInputError):
            od.OdometerSpec(repeat=repeat)


class TestCFOfOdometer:
    def test_binary(self):
        assert od.cf_of_odometer(od.BINARY_ODOMETER).exponents == {2: od.INFINITY}

    def test_alternating(self):
        cf = od.cf_of_odometer(od.OdometerSpec(repeat=(2, 3)))
        assert cf.exponents == {2: od.INFINITY, 3: od.INFINITY}

    @given(repeat=st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=3),
           n=st.integers(min_value=1, max_value=5000))
    def test_members_divide_a_partial_product(self, repeat, n):
        # each prime of the block appears in 13 cycles at least 13 times, and 2^13 > 5000
        products = list(itertools.accumulate(repeat * 13, operator.mul))
        cf = od.cf_of_odometer(od.OdometerSpec(repeat=repeat))
        assert od.cf_contains(cf, n) == any(prod % n == 0 for prod in products)

    def test_alternating_matches_divisibility_scan(self):
        # n is a member iff n divides some partial product 2, 6, 12, 36, ...
        spec = od.OdometerSpec(repeat=(2, 3))
        cf = od.cf_of_odometer(spec)
        products = [1]
        for i in range(40):
            products.append(products[-1] * spec.repeat[i % 2])
        for n in range(1, 10_001):
            divides_some = any(prod % n == 0 for prod in products)
            assert od.cf_contains(cf, n) == divides_some


def test_the_module_holds_the_cf_algebra_and_the_binary_odometer():
    public = {name for name, value in vars(od).items() if not name.startswith("_") and name != "annotations"}
    assert public - {"Immutable", "InvalidInputError", "Mapping", "math"} == {
        "BINARY_ODOMETER", "CFSet", "INFINITY", "OdometerSpec", "PowerFamily", "cf_closure", "cf_contains",
        "cf_equal", "cf_of_odometer", "cf_subset", "cf_to_text", "factorize"}
