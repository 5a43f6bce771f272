"""Hot iteration loops, JIT-compiled when numba is available.

Every kernel is plain Python that numba can compile in nopython mode; if the
import fails the same functions run interpreted, which is slower but
bit-identical. One body serves both backends, so there is nothing to keep
in step between a compiled and an interpreted copy of a loop.

Float-boundary rule: the per-sample kernels (``iterate_map``,
``receiver_chain``, ``masked_transmit_chain`` and ``qr_log_sums``) convert
their start state, their coefficients and every array element they read to
a Python ``float`` with ``float(...)`` before any arithmetic, and keep small
state such as the QR frame in scalar locals rather than arrays.
Interpreted, arithmetic on Python floats costs a fraction of the same
arithmetic on numpy scalars, and both are IEEE double operations in the
same order, so the results do not change. Under numba ``float(...)`` of a
float64 is a no-op.

The two kernels that run the free map go further. Neither can be split into
parallel blocks as the receiver is (the map expands, where the driven
receiver contracts), so ``masked_transmit_chain`` and ``iterate_map``
write the three folds out in their one loop instead of calling
``fold_scalar``, and do their per-sample I/O on Python lists, one chunk of
``CHUNK`` samples or states per call. Both record the state *before* each
step and return the state after the last one, from which the next chunk
continues.
The transmitter reads a chunk of the information signal as a list and
returns its unmixed output ``gamma*x + z`` of every sample as one list,
which the caller copies into an array before adding the information
signal with numpy.
``iterate_map`` returns a chunk's states as one flat list, which
``generate_trajectory`` copies into the ``(n, 3)`` array; it runs the
discarded transient through the same kernel, dropping the lists. So no
numpy item is read or written per sample.
"""

from __future__ import annotations

import math

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # numba is the optional `fast` extra
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def decorate(func):
            return func

        return decorate


# states or samples per call of a chunked kernel (iterate_map,
# masked_transmit_chain, and receiver_chain in sync's sequential path): long
# enough to amortize the call, short enough that the kernel's per-sample
# lists or state buffer stay a small fraction of the output arrays
CHUNK = 4096


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
def iterate_map(x, y, z, a, b, c, beta, weight, n):
    """Advance the map ``n`` >= 1 steps, recording the state before each.

    Returns ``(flat, x, y, z)``: the recorded states as one flat list
    ``[x0, y0, z0, x1, ...]``, the first being the start state, then the
    state after the last step, from which the next call continues.
    ``weight`` is the settling blend; 1.0 selects the exact update so ideal
    trajectories are reproduced bit-for-bit with no arithmetic detour.

    The three folds are written out as in ``masked_transmit_chain``.
    """
    x, y, z = float(x), float(y), float(z)
    a, b, c, beta, weight = float(a), float(b), float(c), float(beta), float(weight)
    exact = weight == 1.0
    hi = 1.0 - beta
    lo = -hi
    flat = []
    for _ in range(n):
        flat.append(x)
        flat.append(y)
        flat.append(z)
        g = (a * x + b * z + 1.0) % 2.0 - 1.0
        if g > hi:
            fx = (1.0 - g) / beta
        elif g < lo:
            fx = (-1.0 - g) / beta
        elif hi != 0.0:
            fx = g / hi
        else:
            fx = 0.0
        g = (c * y + z + 1.0) % 2.0 - 1.0
        if g > hi:
            fy = (1.0 - g) / beta
        elif g < lo:
            fy = (-1.0 - g) / beta
        elif hi != 0.0:
            fy = g / hi
        else:
            fy = 0.0
        g = (x + y + 1.0) % 2.0 - 1.0
        if g > hi:
            fz = (1.0 - g) / beta
        elif g < lo:
            fz = (-1.0 - g) / beta
        elif hi != 0.0:
            fz = g / hi
        else:
            fz = 0.0
        if exact:
            x = fx
            y = fy
            z = fz
        else:
            x = x + (fx - x) * weight
            y = y + (fy - y) * weight
            z = z + (fz - z) * weight
    return flat, x, y, z


@njit(nogil=True)
def receiver_chain(w, x, y, z, a, b, c, beta, gamma, out):
    """Drive the response system with the received scalar series ``w``.

    out[k] holds the receiver state at sample k, i.e. the state formed from
    w[0..k-1]; the update with w[k] happens after recording so transmitter
    and receiver advance in lockstep. Returns the state after the last
    sample, from which a call on the samples that follow continues.
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
    return x, y, z


@njit(nogil=True)
def qr_log_sums(states, a, b, c, beta, weight):
    """Accumulate QR-orthonormalized log stretch factors along a trajectory.

    The Jacobian at each recorded state is diag(slopes) @ A blended with the
    identity by the settling weight. Returns ((s0, s1, s2), steps_used,
    breakpoint_count), s<col> being the log stretch sum of column col;
    breakpoint steps use the central-branch slope and are counted so
    callers can report them.

    The orthonormal frame Q is nine floats, q<row><col>, and J @ Q is
    written out over the nonzero entries of J, followed by modified
    Gram-Schmidt on its three columns.
    """
    a, b, c, beta, weight = float(a), float(b), float(c), float(beta), float(weight)
    rem = 1.0 - weight
    q00, q01, q02 = 1.0, 0.0, 0.0
    q10, q11, q12 = 0.0, 1.0, 0.0
    q20, q21, q22 = 0.0, 0.0, 1.0
    s0 = s1 = s2 = 0.0
    bp = 0
    n = states.shape[0]
    for k in range(n):
        x = float(states[k, 0])
        y = float(states[k, 1])
        z = float(states[k, 2])
        d0, h0 = fold_slope_scalar(a * x + b * z, beta)
        d1, h1 = fold_slope_scalar(c * y + z, beta)
        d2, h2 = fold_slope_scalar(x + y, beta)
        if h0 or h1 or h2:
            bp += 1
        # J = (1 - weight) * I + weight * diag(d) @ A; J[0,1] = J[1,0] = 0
        j00 = weight * d0 * a + rem
        j02 = weight * d0 * b
        j11 = weight * d1 * c + rem
        j12 = weight * d1
        j20 = weight * d2
        j21 = weight * d2
        j22 = rem
        # column 0 of J @ Q, normalized
        m0 = j00 * q00 + j02 * q20
        m1 = j11 * q10 + j12 * q20
        m2 = j20 * q00 + j21 * q10 + j22 * q20
        norm = math.sqrt(m0 * m0 + m1 * m1 + m2 * m2)
        if norm <= 0.0:
            return (s0, s1, s2), k, bp
        s0 += math.log(norm)
        q00, q10, q20 = m0 / norm, m1 / norm, m2 / norm
        # column 1, minus its projection on the new column 0
        m0 = j00 * q01 + j02 * q21
        m1 = j11 * q11 + j12 * q21
        m2 = j20 * q01 + j21 * q11 + j22 * q21
        dot = m0 * q00 + m1 * q10 + m2 * q20
        m0 -= dot * q00
        m1 -= dot * q10
        m2 -= dot * q20
        norm = math.sqrt(m0 * m0 + m1 * m1 + m2 * m2)
        if norm <= 0.0:
            return (s0, s1, s2), k, bp
        s1 += math.log(norm)
        q01, q11, q21 = m0 / norm, m1 / norm, m2 / norm
        # column 2, minus its projections on the new columns 0 and 1
        m0 = j00 * q02 + j02 * q22
        m1 = j11 * q12 + j12 * q22
        m2 = j20 * q02 + j21 * q12 + j22 * q22
        dot = m0 * q00 + m1 * q10 + m2 * q20
        m0 -= dot * q00
        m1 -= dot * q10
        m2 -= dot * q20
        dot = m0 * q01 + m1 * q11 + m2 * q21
        m0 -= dot * q01
        m1 -= dot * q11
        m2 -= dot * q21
        norm = math.sqrt(m0 * m0 + m1 * m1 + m2 * m2)
        if norm <= 0.0:
            return (s0, s1, s2), k, bp
        s2 += math.log(norm)
        q02, q12, q22 = m0 / norm, m1 / norm, m2 / norm
    return (s0, s1, s2), n, bp


@njit(nogil=True)
def masked_transmit_chain(info, x, y, z, a, b, c, beta, gamma):
    """Advance the transmitter over one chunk with the information injected into z.

    ``info`` is the chunk's information samples as a list. At each step the
    mixed third variable ``z + info[k]`` feeds the x and y updates, so a
    matched receiver driven by ``w_star`` reproduces the same dynamics
    exactly. Returns ``(ws, x, y, z)``: the unmixed output ``gamma*x + z``
    of every sample as a list, to which the caller adds ``info`` to form
    ``w_star``, then the state after the chunk, from which the next chunk
    continues.

    The three folds are ``fold_scalar`` written out in the loop body, with
    the same operations in the same order, so the states are bit-identical
    to calling it. ``hi == 0`` only at beta = 1, where the central branch
    is reached only by g = 0 or NaN and returns 0, as ``fold_scalar``
    does. At beta = 0 the outer tests are never true and ``g / 1.0 == g``.
    """
    x, y, z = float(x), float(y), float(z)
    a, b, c, beta, gamma = float(a), float(b), float(c), float(beta), float(gamma)
    hi = 1.0 - beta
    lo = -hi
    ws = []
    append = ws.append
    for ik in info:
        append(gamma * x + z)
        s = z + ik
        g = (a * x + b * s + 1.0) % 2.0 - 1.0
        if g > hi:
            fx = (1.0 - g) / beta
        elif g < lo:
            fx = (-1.0 - g) / beta
        elif hi != 0.0:
            fx = g / hi
        else:
            fx = 0.0
        g = (c * y + s + 1.0) % 2.0 - 1.0
        if g > hi:
            fy = (1.0 - g) / beta
        elif g < lo:
            fy = (-1.0 - g) / beta
        elif hi != 0.0:
            fy = g / hi
        else:
            fy = 0.0
        g = (x + y + 1.0) % 2.0 - 1.0
        if g > hi:
            z = (1.0 - g) / beta
        elif g < lo:
            z = (-1.0 - g) / beta
        elif hi != 0.0:
            z = g / hi
        else:
            z = 0.0
        x = fx
        y = fy
    return ws, x, y, z


@njit(nogil=True)
def lfsr_bits(state, taps, degree, out):
    """Fibonacci LFSR: fill out with the register's output bits, MSB first.

    The register shifts left and feeds back the XOR of its bits ``t - 1`` for
    each tap ``t``, so after the first ``degree`` bits (the start state, MSB
    first) the output obeys ``out[k] = XOR_t out[k - t]``. Over GF(2) the
    feedback polynomial satisfies p(x)**(2**j) = p(x**(2**j)), so
    ``out[k] = XOR_t out[k - t * 2**j]`` holds for every k >= degree * 2**j.
    The fill uses the largest such stride the written prefix allows, in
    slices of ``min(taps) * 2**j`` bits, each reading only bits already
    written; the stride doubles as the prefix doubles, so a sequence of n
    bits takes O(log n) slices.
    """
    n = out.shape[0]
    for k in range(min(degree, n)):
        out[k] = (state >> (degree - 1 - k)) & 1
    low = degree
    for t in taps:
        if t < low:
            low = t
    first = taps[0]
    stride = 1
    k = degree
    while k < n:
        while degree * stride * 2 <= k:
            stride *= 2
        end = min(k + low * stride, n)
        bits = out[k:end]
        bits[:] = out[k - first * stride : end - first * stride]
        for t in taps[1:]:
            bits ^= out[k - t * stride : end - t * stride]
        k = end
