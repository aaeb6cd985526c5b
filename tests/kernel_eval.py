"""One scheme's arrays from the sweep kernel's stages at one config, for the tests that compare them."""

from pinchrelay.kernel import _OUTPUTS, _STAGES, _run


def evaluate(scheme, cfg, xs, ys, shadows_db):
    """One scheme's (total, BS power) arrays at ``cfg`` for the users ``(xs, ys)`` and shadowing draws:
    every stage runs, in ``_STAGES``' order, as in a one-value sweep."""
    results = {"xs": xs, "ys": ys, "shadows": shadows_db}
    for name in _STAGES:
        _run(name, cfg, results)
    stage, index = _OUTPUTS[scheme]
    total, bs_w = results[stage]
    return total[index], bs_w[index]
