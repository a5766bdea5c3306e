"""Output checks of the benchmark workloads.

Each check returns a list of failure messages, empty when the output is
right.  A check uses an independent computation or a property the method
must have (a convergence order, an exact integer count), never a stored
copy of an earlier output.  ``test_checks.py`` feeds each one a wrong
answer.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np


def det_one_minus(rows):
    """det(1 - f*) for a 2x2 integer f*, in exact integers."""
    (a, b), (c, d) = rows
    return (1 - a) * (1 - d) - b * c


def sign(x):
    return (x > 0) - (x < 0)


def _fail(ok, msg):
    return [] if ok else [msg]


# -- numbers ---------------------------------------------------------------

def below(name, value, limit):
    return _fail(math.isfinite(value) and value < limit,
                 f"{name} = {value!r}, want < {limit:g}")


def ratio_at_least(name, num, den, limit):
    ok = math.isfinite(num) and math.isfinite(den) and den > 0 \
        and num / den >= limit
    return _fail(ok, f"{name} ratio {num!r} / {den!r}, want >= {limit:g}")


def slope_within(name, xs, ys, want, tol):
    """Least-squares slope of log ys against log xs is want +- tol."""
    if not all(y > 0 and math.isfinite(y) for y in ys):
        return [f"{name}: non-positive or non-finite values {ys!r}"]
    s = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
    return _fail(abs(s - want) <= tol,
                 f"{name} slope {s:.3f}, want {want} +- {tol}")


def step_order(errors, want=4.0, tol=0.5):
    """Order log2(e(h) / e(h/2)) from errors at step counts s and 2s."""
    e1, e2 = errors
    if not (e1 > 0 and e2 > 0):
        return [f"step-order errors must be positive, got {errors!r}"]
    order = math.log2(e1 / e2)
    return _fail(abs(order - want) <= tol,
                 f"step order {order:.2f}, want {want} +- {tol}")


def quadratic_contraction(residuals, floor=1e-12, c=10.0, order=1.5):
    """Newton residuals r_k fall, r_{k+1} < c r_k^2, and the observed
    order log(r_{k+2}/r_{k+1}) / log(r_{k+1}/r_k) is at least ``order``.

    Residuals at the round-off floor are not judged; at least one order
    estimate must be possible.
    """
    out = []
    for a, b in zip(residuals, residuals[1:]):
        if not (b < a):
            out.append(f"Newton residual did not fall: {a!r} -> {b!r}")
        elif b > floor and not b < c * a * a:
            out.append(f"Newton contraction not quadratic: {a!r} -> {b!r}")
    if out:
        return out
    judged = [r for r in residuals if r > floor]
    if len(judged) < 3:
        return [f"too few Newton residuals to judge the order: "
                f"{residuals!r}"]
    for a, b, c2 in zip(judged, judged[1:], judged[2:]):
        p = math.log(c2 / b) / math.log(b / a)
        if p < order:
            out.append(f"Newton order {p:.2f} < {order} on {a!r}, {b!r}, "
                       f"{c2!r}")
    return out


# -- permutations and classes ----------------------------------------------

def same_permutation(numeric, combinatorial):
    return _fail(tuple(numeric) == tuple(combinatorial),
                 f"numeric monodromy {tuple(numeric)} != braid permutation "
                 f"{tuple(combinatorial)}")


def census_meets(per_class_counts, targets):
    out = []
    for c, want in targets.items():
        got = per_class_counts.get(c, 0)
        if got < want:
            out.append(f"class {c}: census {got} < target {want}")
    return out


def class_count(n_classes, fstar_rows):
    want = abs(det_one_minus(fstar_rows))
    return _fail(n_classes == want,
                 f"{n_classes} classes, want |det(1 - f*)| = {want}")


# -- command line output ---------------------------------------------------

def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def parse_strict_json(name, text):
    """(value, failures) for JSON output; NaN and Infinity are failures."""
    try:
        return json.loads(text, parse_constant=_reject_constant), []
    except ValueError as exc:
        return None, [f"{name}: output is not strict JSON ({exc})"]


def parse_csv(name, text, header):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return None, [f"{name}: CSV header {rows[:1]!r}, want {header!r}"]
    return rows[1:], []


def count_rows(table, fstar_rows, N, d, g=1):
    want = sign(det_one_minus(fstar_rows)) * N * (d + 1 - g)
    rows = table.get("rows", []) if isinstance(table, dict) else []
    got = [r.get("count") for r in rows]
    return _fail(bool(got) and all(c == want for c in got),
                 f"count rows {got!r}, want each {want}")


def half_period_points(rows):
    """The fixed points of -id on R^2/Z^2 are the 4 half-period points."""
    want = {(Fraction(i, 2), Fraction(j, 2)) for i in (0, 1) for j in (0, 1)}
    try:
        got = [tuple(Fraction(x) for x in r[0].split()) for r in rows]
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"fix: unreadable fixed point ({exc})"]
    return _fail(len(got) == 4 and set(got) == want,
                 f"fix lists {got!r}, want the 4 half-period points")
