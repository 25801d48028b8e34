import math
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from odoshift import errors
from odoshift import odometer as od
from oracles import factorized_cf_contains, parse_cf, parse_spec

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

    @given(cf=cf_sets, limit=st.integers(min_value=0, max_value=2000))
    @example(cf=od.CFSet({}), limit=200)
    @example(cf=od.CFSet({2: od.INFINITY, 3: od.INFINITY, 5: od.INFINITY, 7: od.INFINITY}), limit=200)
    def test_members_are_the_contains_scan(self, cf, limit):
        assert od.cf_members(cf, limit) == [n for n in range(1, limit) if od.cf_contains(cf, n)]

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
        assert od.OdometerSpec(bases=(1, 6, 1), repeat=(1,)).bases == (6,)

    def test_rejects_small_factors(self):
        with pytest.raises(errors.InvalidInputError):
            od.OdometerSpec(bases=(0,))

    def test_radix_cycle(self):
        spec = od.OdometerSpec(bases=(5,), repeat=(2, 3))
        assert [spec.radix_at(i) for i in range(6)] == [5, 2, 3, 2, 3, 2]

    def test_text_round_trip(self):
        for spec in (od.BINARY_ODOMETER, od.OdometerSpec(bases=(12,)), od.OdometerSpec(bases=(2, 3), repeat=(5,))):
            assert parse_spec(od.spec_to_text(spec)) == spec
        assert od.spec_to_text(od.BINARY_ODOMETER) == "2,..."
        assert parse_spec("2,3,...") == od.OdometerSpec(bases=(2,), repeat=(3,))


class TestOdometerStep:
    def test_examples(self):
        spec = od.OdometerSpec(bases=(2, 3))
        assert od.odometer_step(od.OdometerState((0, 0)), spec).digits == (1, 0)
        assert od.odometer_step(od.OdometerState((1, 0)), spec).digits == (0, 1)
        # the carry past the last digit is dropped: the top state wraps to zero
        assert od.odometer_step(od.OdometerState((1, 2)), spec).digits == (0, 0)

    def test_mismatched_lengths(self):
        with pytest.raises(errors.InvalidInputError):
            od.odometer_step(od.OdometerState((0,)), od.OdometerSpec(bases=(2, 3)))

    def test_digit_bounds(self):
        with pytest.raises(errors.InvalidInputError):
            od.odometer_step(od.OdometerState((2, 0)), od.OdometerSpec(bases=(2, 3)))

    @given(start=st.integers(min_value=0, max_value=255), steps=st.integers(min_value=0, max_value=300))
    def test_binary_step_is_integer_increment(self, start, steps):
        K = 8
        state = od.OdometerState(tuple((start >> i) & 1 for i in range(K)))
        for _ in range(steps):
            state = od.odometer_step(state, od.BINARY_ODOMETER)
        value = sum(b << i for i, b in enumerate(state.digits))
        assert value == (start + steps) % (1 << K)

    def test_orbit_minimality(self):
        # any start state cycles through all states of the truncation
        spec = od.OdometerSpec(bases=(2, 3, 2))
        seen = {
            s.digits
            for s in od.odometer_orbit(spec, od.OdometerState((1, 2, 0)), 11)
        }
        assert len(seen) == 12

    @pytest.mark.parametrize(
        "spec, start",
        [
            (od.OdometerSpec(bases=(2, 3, 2)), (1, 2, 0)),
            (od.OdometerSpec(bases=(3, 5), repeat=(2, 7)), (2, 4, 1, 6, 0, 3)),
            (od.OdometerSpec(repeat=(3,)), (2, 2, 1, 0)),
            (od.BINARY_ODOMETER, (1,) * 12),
        ],
    )
    def test_orbit_is_the_iterated_step(self, spec, start):
        # the orbit validates its start once; every state must still be odometer_step's
        state = od.OdometerState(start)
        expected = [state]
        for _ in range(500):
            state = od.odometer_step(state, spec)
            expected.append(state)
        assert list(od.odometer_orbit(spec, od.OdometerState(start), 500)) == expected

    @pytest.mark.parametrize(
        "spec, digits",
        [
            (od.BINARY_ODOMETER, (0, 2)),
            (od.OdometerSpec(bases=(2, 3)), (1,)),
            (od.OdometerSpec(bases=(2,), repeat=(3, 5)), (1, 2, 5)),
        ],
    )
    @pytest.mark.parametrize("steps", [0, 4])
    def test_orbit_rejects_an_invalid_start(self, spec, digits, steps):
        with pytest.raises(errors.InvalidInputError):
            list(od.odometer_orbit(spec, od.OdometerState(digits), steps))


class TestCFOfOdometer:
    def test_binary(self):
        assert od.cf_of_odometer(od.BINARY_ODOMETER).exponents == {2: od.INFINITY}

    def test_finite_six(self):
        assert od.cf_of_odometer(od.OdometerSpec(bases=(6,))).exponents == {2: 1, 3: 1}

    def test_alternating(self):
        cf = od.cf_of_odometer(od.OdometerSpec(repeat=(2, 3)))
        assert cf.exponents == {2: od.INFINITY, 3: od.INFINITY}

    def test_alternating_matches_divisibility_scan(self):
        # n is a member iff n divides some partial product 2, 6, 12, 36, ...
        spec = od.OdometerSpec(repeat=(2, 3))
        cf = od.cf_of_odometer(spec)
        products = [1]
        for i in range(40):
            products.append(products[-1] * spec.radix_at(i))
        for n in range(1, 10_001):
            divides_some = any(prod % n == 0 for prod in products)
            assert od.cf_contains(cf, n) == divides_some


class TestOdometerFromCF:
    def test_pure_binary(self):
        assert od.odometer_from_cf(od.CFSet({2: od.INFINITY})) == od.BINARY_ODOMETER

    def test_finite_case(self):
        assert od.odometer_from_cf(od.CFSet({2: 2, 3: 1})) == od.OdometerSpec(bases=(12,))

    @given(cf=cf_sets)
    def test_round_trip(self, cf):
        assert od.cf_equal(od.cf_of_odometer(od.odometer_from_cf(cf)), cf)


class TestDyadicInt:
    def test_add_one_examples(self):
        # adding one to a truncated dyadic integer is the binary odometer step
        for bits, after in (("000", "100"), ("111", "000"), ("110", "001")):
            state = od.OdometerState(tuple(int(b) for b in bits))
            step = od.odometer_step(state, od.BINARY_ODOMETER)
            assert "".join(map(str, step.digits)) == after
            x = od.DyadicInt(int(bits[::-1], 2), len(bits))
            assert od.DyadicInt((x.value + 1) % (1 << x.precision), x.precision).to_text() == after

    def test_text_is_lsb_first(self):
        assert od.DyadicInt(5, 8).to_text() == "10100000"

    @given(value=st.integers(min_value=0, max_value=10_000), precision=st.integers(min_value=1, max_value=16))
    def test_from_int_round_trip(self, value, precision):
        x = od.DyadicInt(value % (1 << precision), precision)
        assert x.precision == precision
        assert len(x.to_text()) == precision
        assert int(x.to_text()[::-1], 2) == x.value == value % (1 << precision)

    def test_rejects_non_bits(self):
        # a value needing more than ``precision`` bits, a negative value, no bits at all
        for value, precision in ((4, 2), (-1, 3), (0, 0)):
            with pytest.raises(errors.InvalidInputError):
                od.DyadicInt(value, precision)
