"""negamm: invariants, swaps and analytics for negative-price AMMs."""

__version__ = "0.1.0"

_SUBMODULES = frozenset({"cli", "curves", "errors", "fingerprint", "payoff", "series", "swap"})


def _public() -> dict:
    """Every public name, from its submodule, in this order."""
    from .curves import (
        CurveSpec,
        Family,
        PoolState,
        ccmm_angle_from_price,
        ccmm_y_from_x,
        cpmm_x_from_price,
        cpmm_y_from_x,
        csemm_exponent,
        csemm_x_from_price,
        csemm_y_from_x,
        fold_x,
        invariant_residual,
        parabola_x_from_price,
        parabola_y_from_x,
        price_of,
        residual_scale,
        state_from_price,
        state_from_x,
        x_from_y_on_side,
        y_from_x,
    )
    from .errors import (
        ConvergenceError,
        DomainError,
        DomainExceeded,
        InsufficientDataError,
        InvalidFee,
        MonotonicityError,
        NegammError,
        ParameterError,
        SeriesError,
        SeriesParseError,
    )
    from .fingerprint import (
        NEGATIVE,
        POSITIVE,
        FingerprintSample,
        ccmm_liquidity_sqrtprice,
        ccmm_liquidity_tick,
        central_difference,
        circle_angle_of_price,
        circle_map,
        cpmm_liquidity,
        gaussian_fingerprint,
        numeraire_reserve,
        numeric_fingerprint,
        parabola_liquidity_sqrtprice,
        parabola_liquidity_tick,
        tail_index,
    )
    from .payoff import GreeksPoint, delta, gamma, greeks, lp_value, theta
    from .series import (
        ARITHMETIC_DIFF,
        PERCENT,
        PriceSeries,
        ReturnSeries,
        YearStats,
        hill_tail_index,
        load_series,
        negative_price_stats,
        returns,
        squared_returns,
    )
    from .swap import (
        TOKEN_X,
        TOKEN_Y,
        SwapRequest,
        SwapResult,
        execute_swap,
        price_impact,
        quote_exact_in,
    )
    return locals()


# ``import negamm`` loads no submodule: the first read of a public name, or of
# __all__, binds them all at once.  A submodule's name (``from . import curves``
# asks hasattr(negamm, "curves") first) or a _-prefixed one loads nothing.  The
# hook then removes itself: CPython reads the names of a module that has a
# __getattr__ on its slow path.
def __getattr__(name: str):
    namespace = globals()
    if name not in _SUBMODULES and (name == "__all__" or not name.startswith("_")):
        public = _public()
        namespace.update(public, __all__=list(public))
        del namespace["__getattr__"]
        if name in namespace:
            return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
