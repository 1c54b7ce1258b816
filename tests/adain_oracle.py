"""Frozen copy of render.adain as it was before it reused its temporaries:
every step made a new full-size array. Tests use it as an oracle: the
package's adain must return the same output and cache bit for bit. Do not
simplify this file.

It shares with the package only AdaINParams and the ADAIN_EPS floor.
"""

import numpy as np

from cloudmap.render import ADAIN_EPS


def adain_frozen(features, params):
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != params.w_scale.shape[0]:
        raise ValueError(f"feature channels do not match params: {x.shape}")
    y_s = params.w_scale @ params.control + params.b_scale
    y_b = params.w_bias @ params.control + params.b_bias
    n = x.shape[0] * x.shape[1]
    mu = np.cumsum(x.reshape(n, -1), axis=0)[-1] / n
    d = x - mu
    var = np.cumsum((d * d).reshape(n, -1), axis=0)[-1] / n
    sigma = np.sqrt(var + ADAIN_EPS)
    xhat = d / sigma
    out = y_s * xhat + y_b
    cache = (xhat, sigma, y_s, params)
    return out, cache
