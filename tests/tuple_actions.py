"""The two Weyl actions on fixed-point tuples, which only tests use."""

from qflagk.gkm import GKMTupleT, GKMTupleX
from qflagk.ringcore import weyl_act_poly


def weyl_act_tuple(v, f):
    """Index reshuffle only: the new value at w is the old value at w * v^{-1}.

    Composing two of these reverses the order of the group elements (the
    action comes from a pullback), so acting by u then by v equals acting by
    v * u in one step.
    """
    vinv = v.inverse()
    return GKMTupleT(f.rank, {w: f.values[w * vinv] for w in f.values})


def coeff_act_tuple(v, f):
    """Coefficient action of a sign change: acts on every component, fixes indices."""
    if not v.is_sign_change():
        raise ValueError(f"{v} is not a sign change")
    return GKMTupleX(f.rank, {t: weyl_act_poly(v, p) for t, p in f.values.items()})
