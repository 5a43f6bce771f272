"""Hot iteration loops, JIT-compiled when numba is available.

Every kernel is plain Python that numba can compile in nopython mode; if the
import fails the same functions run interpreted, which is slower but
bit-identical. One body serves both backends, so there is nothing to keep
in step between a compiled and an interpreted copy of a loop.

Float-boundary rule: the per-sample kernels convert their start state, their
coefficients and every array element they read to a Python ``float`` with
``float(...)`` before any arithmetic. Interpreted, arithmetic on Python
floats costs a fraction of the same arithmetic on numpy scalars, and both
are IEEE double operations in the same order, so the results do not change.
Under numba ``float(...)`` of a float64 is a no-op.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # numba is the optional `fast` extra
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def decorate(func):
            return func

        return decorate


@njit(nogil=True)
def fold_scalar(u, beta):
    """Generalized tent fold of a single pre-wrapped argument.

    The argument is first wrapped into [-1, 1) with floored modulo, then
    mapped through the piecewise-linear tent with central slope 1/(1-beta)
    and outer slopes -1/beta. beta = 0 and beta = 1 are the exact
    constant-slope limits; the isolated undefined point (beta = 1, wrap 0)
    maps to 0 so the origin stays a fixed point.
    """
    g = (u + 1.0) % 2.0 - 1.0
    if beta == 0.0:
        return g
    if beta == 1.0:
        if g > 0.0:
            return 1.0 - g
        if g < 0.0:
            return -1.0 - g
        return 0.0
    hi = 1.0 - beta
    if g > hi:
        return (1.0 - g) / beta
    if g < -hi:
        return (-1.0 - g) / beta
    return g / (1.0 - beta)


@njit(nogil=True)
def fold_slope_scalar(u, beta):
    """(slope, at_breakpoint) of the fold at pre-wrap argument ``u``.

    Branch boundaries are assigned to the central (positive-slope) segment,
    matching fold_scalar, but flagged so callers can skip or report them.
    """
    g = (u + 1.0) % 2.0 - 1.0
    if beta == 0.0:
        return 1.0, g == -1.0
    if beta == 1.0:
        return -1.0, g == 0.0
    hi = 1.0 - beta
    if g > hi:
        return -1.0 / beta, False
    if g < -hi:
        return -1.0 / beta, False
    return 1.0 / (1.0 - beta), (g == hi) or (g == -hi)


@njit(nogil=True)
def iterate_map(x, y, z, a, b, c, beta, weight, transient, out):
    """Iterate the map, discard ``transient`` steps, record into out (n, 3).

    ``weight`` is the settling blend; 1.0 selects the exact update so ideal
    trajectories are reproduced bit-for-bit with no arithmetic detour.
    """
    x, y, z = float(x), float(y), float(z)
    a, b, c, beta, weight = float(a), float(b), float(c), float(beta), float(weight)
    for _ in range(transient):
        fx = fold_scalar(a * x + b * z, beta)
        fy = fold_scalar(c * y + z, beta)
        fz = fold_scalar(x + y, beta)
        if weight == 1.0:
            x, y, z = fx, fy, fz
        else:
            x = x + (fx - x) * weight
            y = y + (fy - y) * weight
            z = z + (fz - z) * weight
    n = out.shape[0]
    if n == 0:
        return
    out[0, 0] = x
    out[0, 1] = y
    out[0, 2] = z
    for k in range(1, n):
        fx = fold_scalar(a * x + b * z, beta)
        fy = fold_scalar(c * y + z, beta)
        fz = fold_scalar(x + y, beta)
        if weight == 1.0:
            x, y, z = fx, fy, fz
        else:
            x = x + (fx - x) * weight
            y = y + (fy - y) * weight
            z = z + (fz - z) * weight
        out[k, 0] = x
        out[k, 1] = y
        out[k, 2] = z


@njit(nogil=True)
def receiver_chain(w, x, y, z, a, b, c, beta, gamma, out):
    """Drive the response system with the received scalar series ``w``.

    out[k] holds the receiver state at sample k, i.e. the state formed from
    w[0..k-1]; the update with w[k] happens after recording so transmitter
    and receiver advance in lockstep.
    """
    x, y, z = float(x), float(y), float(z)
    a, b, c, beta, gamma = float(a), float(b), float(c), float(beta), float(gamma)
    n = w.shape[0]
    for k in range(n):
        out[k, 0] = x
        out[k, 1] = y
        out[k, 2] = z
        zt = float(w[k]) - gamma * x
        fx = fold_scalar(a * x + b * zt, beta)
        fy = fold_scalar(c * y + zt, beta)
        fz = fold_scalar(x + y, beta)
        x, y, z = fx, fy, fz


@njit(nogil=True)
def qr_log_sums(states, a, b, c, beta, weight):
    """Accumulate QR-orthonormalized log stretch factors along a trajectory.

    The Jacobian at each recorded state is diag(slopes) @ A blended with the
    identity by the settling weight. Returns (log_sums[3], steps_used,
    breakpoint_count); breakpoint steps use the central-branch slope and are
    counted so callers can report them.
    """
    n = states.shape[0]
    q = np.eye(3)
    sums = np.zeros(3)
    bp = 0
    for k in range(n):
        x = states[k, 0]
        y = states[k, 1]
        z = states[k, 2]
        s0, h0 = fold_slope_scalar(a * x + b * z, beta)
        s1, h1 = fold_slope_scalar(c * y + z, beta)
        s2, h2 = fold_slope_scalar(x + y, beta)
        if h0 or h1 or h2:
            bp += 1
        # J = (1 - weight) * I + weight * diag(s) @ A
        j = np.empty((3, 3))
        j[0, 0] = weight * s0 * a
        j[0, 1] = 0.0
        j[0, 2] = weight * s0 * b
        j[1, 0] = 0.0
        j[1, 1] = weight * s1 * c
        j[1, 2] = weight * s1
        j[2, 0] = weight * s2
        j[2, 1] = weight * s2
        j[2, 2] = 0.0
        if weight != 1.0:
            rem = 1.0 - weight
            j[0, 0] += rem
            j[1, 1] += rem
            j[2, 2] += rem
        m = j @ q
        # Modified Gram-Schmidt on the three columns of m.
        for col in range(3):
            for prev in range(col):
                dot = (
                    m[0, col] * q[0, prev]
                    + m[1, col] * q[1, prev]
                    + m[2, col] * q[2, prev]
                )
                m[0, col] -= dot * q[0, prev]
                m[1, col] -= dot * q[1, prev]
                m[2, col] -= dot * q[2, prev]
            norm = np.sqrt(m[0, col] ** 2 + m[1, col] ** 2 + m[2, col] ** 2)
            if norm <= 0.0:
                return sums, k, bp
            sums[col] += np.log(norm)
            q[0, col] = m[0, col] / norm
            q[1, col] = m[1, col] / norm
            q[2, col] = m[2, col] / norm
    return sums, n, bp


@njit(nogil=True)
def masked_transmit_chain(info, x, y, z, a, b, c, beta, gamma, w_clean, w_star):
    """Advance the transmitter with the information injected into z.

    At each step the mixed third variable ``z + info[k]`` feeds the x and y
    updates and the scalar output, so a matched receiver driven by w_star
    reproduces the same dynamics exactly. w_star is emitted as
    ``w_clean + info`` so the additive relation is bit-exact.
    """
    x, y, z = float(x), float(y), float(z)
    a, b, c, beta, gamma = float(a), float(b), float(c), float(beta), float(gamma)
    n = info.shape[0]
    for k in range(n):
        ik = float(info[k])
        zs = z + ik
        wc = gamma * x + z
        w_clean[k] = wc
        w_star[k] = wc + ik
        fx = fold_scalar(a * x + b * zs, beta)
        fy = fold_scalar(c * y + zs, beta)
        fz = fold_scalar(x + y, beta)
        x, y, z = fx, fy, fz


@njit(nogil=True)
def lfsr_bits(state, taps, degree, out):
    """Fibonacci LFSR: fill out with the register's output bits, MSB first.

    The register shifts left and feeds back the XOR of its bits ``t - 1`` for
    each tap ``t``, so after the first ``degree`` bits (the start state, MSB
    first) the output obeys ``out[k] = XOR_t out[k - t]``. That recurrence is
    filled in slices of length ``min(taps)``, each reading only bits already
    written.
    """
    n = out.shape[0]
    for k in range(min(degree, n)):
        out[k] = (state >> (degree - 1 - k)) & 1
    step = degree
    for t in taps:
        if t < step:
            step = t
    first = taps[0]
    for k in range(degree, n, step):
        end = min(k + step, n)
        bits = out[k:end]
        bits[:] = out[k - first : end - first]
        for t in taps[1:]:
            bits ^= out[k - t : end - t]
