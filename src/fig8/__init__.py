"""fig8: exact arithmetic for one-double-point geodesics, surface covers,
and quantified residual finiteness."""
