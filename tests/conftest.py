from cobcalc.chow import LineTerm, VirtualBundle


def pentagonal_partition_counts(n: int) -> list[int]:
    """Oracle: Euler's pentagonal-number recurrence for p(0..n)."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while True:
            g1 = m - k * (3 * k - 1) // 2
            g2 = m - k * (3 * k + 1) // 2
            if g1 < 0 and g2 < 0:
                break
            sign = 1 if k % 2 else -1
            if g1 >= 0:
                total += sign * p[g1]
            if g2 >= 0:
                total += sign * p[g2]
            k += 1
        p[m] = total
    return p


PARTITION_COUNTS = pentagonal_partition_counts(100)


def line_bundle(space, twist, sign: int = 1) -> VirtualBundle:
    """The virtual bundle of one signed line bundle on space."""
    return VirtualBundle(space, (LineTerm(sign, tuple(twist)),))
