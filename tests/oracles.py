"""Slow reference implementations that fast paths in the package are tested against."""

from __future__ import annotations

from eschbaz import EschParams, is_free, pc_normal_form


def enumerate_normal_forms(max_abs: int) -> set[tuple]:
    """Normal-form keys (a, b) of the free, positively curved spaces in the box.

    The enumeration ``scan_box`` used before it wrote keys down directly:
    walk both inequality chains for every 0 <= a2 <= a1 <= max_abs, test
    freeness with ``is_free`` and normalize each hit with ``pc_normal_form``.
    """
    found: set[tuple] = set()
    for a1 in range(max_abs + 1):
        for a2 in range(a1 + 1):
            s = a1 + a2
            candidates = []
            # chain 1: b3 <= b2 <= -1, b1 = s - b2 - b3 <= max_abs
            for b3 in range(-max_abs, 0):
                for b2 in range(max(b3, s - max_abs - b3), 0):
                    candidates.append((s - b2 - b3, b2, b3))
            # chain 2: b2 >= b3 >= a1 + 1, b2 <= max_abs, b1 = s - b2 - b3 >= -max_abs
            for b3 in range(a1 + 1, max_abs + 1):
                for b2 in range(b3, min(max_abs, s + max_abs - b3) + 1):
                    candidates.append((s - b2 - b3, b2, b3))
            for b in candidates:
                e = EschParams((a1, a2, 0), b)
                if is_free(e):
                    f = pc_normal_form(e)
                    found.add((f.a, f.b))
    return found
