"""Curves the workloads run on, with the benchmark's own model of each branch.

The model is written from the curve equations, not from negamm: the swap
workload uses it to aim trades and to decide, before sending a trade, whether
that trade leaves the trading branch; the checks use it to recompute
invariant residuals.  Only ``math`` is imported here, so building the specs in
a fresh interpreter costs no more than importing negamm itself.
"""

from __future__ import annotations

import math

CIRCLE = 2.0 + math.sqrt(2.0)


def exponent(c: float) -> float:
    """Super-ellipse exponent u(c) = ln 2 / ln(c / (c - 1))."""
    return math.log(2.0) / math.log(c / (c - 1.0))


class Branch:
    """Trading branch of one curve: bounds, fold, y(x) and the invariant."""

    def __init__(self, label: str, family: str, **params):
        self.label = label
        self.family = family
        self.params = params
        self.fold = None
        self.scale = 1.0
        if family == "ccmm":
            k = params["k"]
            self.x_hi, self.y_hi, self.fold, self.scale = 2.0 * k, k, k, k
        elif family == "csemm":
            a, b = params["alpha"], params["beta"]
            self.x_hi, self.y_hi, self.fold = 2.0 * a, b, a
            self.u_a, self.u_b = exponent(a), exponent(b)
        elif family == "cpmm":
            self.x_hi = self.y_hi = math.inf
            self.scale = params["L"] * params["L"]
        elif family == "parabola":
            # m = 2: y = (1 - sqrt(x))^2, fold at x = 1; the positive-price
            # side keeps y <= 1, the negative side is unbounded.
            self.x_hi = self.y_hi = math.inf
            self.fold = 1.0
        else:
            raise ValueError(f"unknown family {family!r}")

    def spec(self, negamm):
        return negamm.CurveSpec(family=self.family, **self.params)

    def y(self, x: float) -> float:
        p = self.params
        if self.family == "ccmm":
            k = p["k"]
            return k - math.sqrt(x * (2.0 * k - x))
        if self.family == "csemm":
            a, b = p["alpha"], p["beta"]
            inner = 1.0 - abs(x / a - 1.0) ** self.u_a
            return b * (1.0 - inner ** (1.0 / self.u_b))
        if self.family == "cpmm":
            return p["L"] * p["L"] / x
        return (1.0 - math.sqrt(x)) ** 2

    def residual(self, x: float, y: float) -> float:
        p = self.params
        if self.family == "ccmm":
            k = p["k"]
            return (x - k) ** 2 + (y - k) ** 2 - k * k
        if self.family == "csemm":
            a, b = p["alpha"], p["beta"]
            return abs(x / a - 1.0) ** self.u_a + abs(y / b - 1.0) ** self.u_b - 1.0
        if self.family == "cpmm":
            return x * y - p["L"] * p["L"]
        return y - (1.0 - math.sqrt(max(x, 0.0))) ** 2

    def left(self, x: float) -> bool:
        """True on the positive-price side of the fold (or with no fold)."""
        return self.fold is None or x <= self.fold

    def leaves(self, token: str, x: float, y: float, effective: float) -> bool:
        """Whether adding ``effective`` of ``token`` steps off the branch."""
        if token == "x":
            new = x + effective
            if self.family == "cpmm":
                return new <= 0.0
            return new < 0.0 or new > self.x_hi
        new = y + effective
        if self.family == "cpmm":
            return new <= 0.0
        if self.family == "parabola":
            return new < 0.0 or (self.left(x) and new > 1.0)
        return new < 0.0 or new > self.y_hi

    def draw_target(self, rng) -> float:
        """A reserve x to trade toward; uniform on the inner 90% of bounded
        branches, so about half of all targets lie across the fold."""
        if self.family == "cpmm":
            return math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        if self.family == "parabola":
            return rng.uniform(0.02, 4.0)
        return rng.uniform(0.05, 0.95) * self.x_hi

    def draw_beyond(self, rng, token: str, x: float, y: float) -> float:
        """A reserve for ``token`` clearly outside the branch."""
        step = rng.uniform(0.01, 0.5)
        if token == "x":
            if math.isfinite(self.x_hi) and rng.random() < 0.5:
                return self.x_hi * (1.0 + step)
            return -step
        if self.family == "parabola" and self.left(x) and rng.random() < 0.5:
            return 1.0 + step
        if math.isfinite(self.y_hi) and rng.random() < 0.5:
            return self.y_hi * (1.0 + step)
        return -step


SWAP_POOLS = [
    # (branch, starting reserve x); every pool starts left of its fold.
    (Branch("ccmm k=1", "ccmm", k=1.0), 0.5),
    (Branch("csemm circle", "csemm", alpha=CIRCLE, beta=CIRCLE), 0.5 * CIRCLE),
    (Branch("csemm 3,4", "csemm", alpha=3.0, beta=4.0), 1.5),
    (Branch("cpmm L=1", "cpmm", L=1.0), 1.0),
    (Branch("parabola m=2", "parabola", m=2), 0.5),
]

GRID_CURVES = [
    Branch("ccmm k=1", "ccmm", k=1.0),
    Branch("csemm circle", "csemm", alpha=CIRCLE, beta=CIRCLE),
    Branch("csemm 3,3", "csemm", alpha=3.0, beta=3.0),
    Branch("csemm 3,4", "csemm", alpha=3.0, beta=4.0),
    Branch("csemm 8,2.5", "csemm", alpha=8.0, beta=2.5),
    Branch("csemm near-diamond 2.2,2.2", "csemm", alpha=2.2, beta=2.2),
]


def build_pools(negamm):
    """Swap pools: (branch, spec, starting state), built through the library."""
    pools = []
    for branch, x0 in SWAP_POOLS:
        spec = branch.spec(negamm)
        pools.append((branch, spec, negamm.state_from_x(spec, x0)))
    return pools


def build_curves(negamm):
    """Grid curves: (branch, spec), built through the library."""
    return [(branch, branch.spec(negamm)) for branch in GRID_CURVES]
