import importlib
import math

import pytest

from cfq.core import (ReducedFraction, cf_digits, cf_walk, convergents_of,
                      expand)
from cfq.errors import WrongHalf
from cfq.reflect import (reflect, reflect_lower, reflect_upper,
                         verify_continuant_identity)

# ``import cfq.reflect`` may give the function cfq.reflect.reflect.
reflect_module = importlib.import_module("cfq.reflect")


def test_lower_reverses_digits():
    img = reflect_lower(ReducedFraction(2, 7))  # [0;3,2] -> [0;2,3]
    assert (img.a, img.N) == (3, 7)
    assert cf_digits(img.a, img.N) == [2, 3]


def test_lower_fixed_point():
    img = reflect_lower(ReducedFraction(3, 10))  # [0;3,3] is a palindrome
    assert (img.a, img.N) == (3, 10)


def test_upper_examples():
    assert reflect_upper(ReducedFraction(7, 10)).a == 7
    assert reflect_upper(ReducedFraction(5, 7)).a == 4
    assert reflect_upper(ReducedFraction(9, 10)).a == 9


def test_wrong_half_raises():
    with pytest.raises(WrongHalf):
        reflect_lower(ReducedFraction(7, 10))
    with pytest.raises(WrongHalf):
        reflect_upper(ReducedFraction(3, 10))


def test_involution_and_identity_exhaustive():
    for N in range(2, 121):
        lower_images = set()
        upper_images = set()
        for a in range(1, N):
            if math.gcd(a, N) != 1:
                continue
            frac = ReducedFraction(a, N)
            rec = reflect(frac)
            if 2 * a <= N:
                assert rec.half == "lower"
                assert 2 * rec.image.a <= N
                assert reflect_lower(rec.image).a == a
                lower_images.add(rec.image.a)
            else:
                assert rec.half == "upper"
                assert 2 * rec.image.a > N
                assert reflect_upper(rec.image).a == a
                upper_images.add(rec.image.a)
            ok, witness = verify_continuant_identity(frac)
            assert ok, (a, N, witness)
        # involutions are bijections on their halves
        assert lower_images == {a for a in range(1, N // 2 + 1)
                                if math.gcd(a, N) == 1}
        assert upper_images == {a for a in range(N // 2 + 1, N)
                                if math.gcd(a, N) == 1}


def test_upper_digit_pattern():
    # the image starts 1, a_r - 1 and ends a_2 + 1
    frac = ReducedFraction(17, 25)  # [0;1,2,8]
    digits = cf_digits(17, 25)
    image = reflect_upper(frac)
    img_digits = cf_digits(image.a, image.N)
    assert img_digits[0] == 1
    assert img_digits[1] == digits[-1] - 1
    assert img_digits[-1] == digits[1] + 1


def _reversed_image(a, N):
    """a* by reversing the digit list, the earlier rule for both halves."""
    digits = cf_digits(a, N)
    if 2 * a <= N:
        canonical = digits[::-1]
    else:
        # a_1 = 1: rewrite (..., a_r) as (..., a_r - 1, 1), reverse, then
        # merge the trailing 1 into its predecessor
        reversed_ = (digits[:-1] + [digits[-1] - 1, 1])[::-1]
        canonical = reversed_[:-2] + [reversed_[-2] + 1]
    p, q = convergents_of(canonical)[-1]
    assert q == N
    return p


def test_reflections_match_digit_reversal():
    for N in range(2, 600):
        for a in range(1, N):
            if math.gcd(a, N) != 1:
                continue
            frac = ReducedFraction(a, N)
            image = reflect_lower(frac) if 2 * a <= N else reflect_upper(frac)
            assert image.a == _reversed_image(a, N), (a, N)


def three_walk_continuant(frac):
    """The identity check as three walks: expand a/N, reflect it (which
    walks a/N again) and expand a*/N, reading q_i from the tables."""
    cf = expand(frac)
    r = cf.length
    record = reflect(frac)
    star = expand(record.image)
    s = 0 if record.half == "lower" else 1

    def q(table, i):
        return 0 if i < 0 else table.convergents[i][1]

    witness = [(i, q(cf, i) * q(star, r - i + s)
                + q(cf, i - 1) * q(star, r - i - 1 + s))
               for i in range(1 + s, r + 1 - s)]
    return all(lhs == frac.N for _, lhs in witness), witness


def test_continuant_identity_matches_three_walks():
    for N in range(2, 301):
        for a in range(1, N):
            if math.gcd(a, N) == 1:
                frac = ReducedFraction(a, N)
                assert verify_continuant_identity(frac) == \
                    three_walk_continuant(frac), (a, N)


def test_continuant_identity_walks_twice(monkeypatch):
    walked = []

    def counting_walk(a, N):
        walked.append((a, N))
        return cf_walk(a, N)

    monkeypatch.setattr(reflect_module, "cf_walk", counting_walk)
    # one walk of a/N and one of a*/N, in both halves
    for a, N in ((1, 2), (2, 7), (5, 7), (13, 21), (17, 25)):
        frac = ReducedFraction(a, N)
        image = reflect(frac).image
        walked.clear()
        verify_continuant_identity(frac)
        assert walked == [(a, N), (image.a, N)]
