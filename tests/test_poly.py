from fractions import Fraction as F

from krflab.cohomology import poly
from oracles import count_roots, restrict_to_line


def test_linear_root_exact():
    # 15 - 3t
    root, interval = poly.first_positive_root([F(15), F(-3)])
    assert root == F(5) and interval is None


def test_linear_no_positive_root():
    assert poly.first_positive_root([F(2), F(3)]) == (None, None)
    assert poly.first_positive_root([F(7)]) == (None, None)


def test_quadratic_square_discriminant_exact():
    # (4-3t)^2 - (t-1)^2 = 15 - 22t + 8t^2, roots 5/4 and 3/2
    root, interval = poly.first_positive_root([F(15), F(-22), F(8)])
    assert root == F(5, 4) and interval is None


def test_quadratic_double_root():
    # (t-1)^2
    root, _ = poly.first_positive_root([F(1), F(-2), F(1)])
    assert root == F(1)


def test_quadratic_irrational_is_isolated():
    # t^2 - 2: smallest positive root sqrt(2)
    root, interval = poly.first_positive_root([F(-2), F(0), F(1)])
    assert root is None and interval is not None
    lo, hi = interval
    assert hi - lo <= poly.ISOLATION_WIDTH
    assert poly.evaluate([F(-2), F(0), F(1)], lo) < 0 < poly.evaluate([F(-2), F(0), F(1)], hi)


def test_quadratic_no_real_roots():
    assert poly.first_positive_root([F(1), F(0), F(1)]) == (None, None)


def test_cubic_sturm_isolation():
    # (t-1)(t-2)(t-3) = -6 + 11t - 6t^2 + t^3, smallest positive root 1
    coeffs = [F(-6), F(11), F(-6), F(1)]
    root, interval = poly.first_positive_root(coeffs)
    assert root is None and interval is not None
    lo, hi = interval
    assert lo < 1 <= hi or lo <= 1 < hi
    assert hi - lo <= poly.ISOLATION_WIDTH


def test_cubic_with_multiple_root():
    # (t-1)^2 (t-2): isolation must survive the double root at 1
    coeffs = [F(-2), F(5), F(-4), F(1)]
    root, interval = poly.first_positive_root(coeffs)
    assert root is None
    lo, hi = interval
    assert lo < F(1001, 1000) and hi > F(999, 1000)


def test_count_roots():
    coeffs = [F(-6), F(11), F(-6), F(1)]
    assert count_roots(coeffs, F(0), F(10)) == 3
    assert count_roots(coeffs, F(3, 2), F(5, 2)) == 1


def test_restrict_to_line():
    # volume form m1^2 - m2^2 along (4,-1) - t*(3,-1)
    monos = {(2, 0): F(1), (0, 2): F(-1)}
    coeffs = restrict_to_line(monos, [F(4), F(-1)], [F(3), F(-1)])
    assert coeffs == [F(15), F(-22), F(8)]
