"""Dormand-Prince 8(5,3): an explicit Runge-Kutta pair with dense output.

The 12-stage method of order 8 carries embedded error estimates of orders
5 and 3, and 3 more stages give a continuous extension of order 7
(Hairer, Norsett & Wanner, Solving Ordinary Differential Equations I,
2nd ed., Sec. II.10; their DOP853 code). The step control and the sampling
at ``t_eval`` repeat scipy's ``solve_ivp(method="DOP853", t_eval=...)``
operation for operation, so the samples and the count of right-hand-side
evaluations equal scipy's bit for bit; the tests hold scipy as the
reference. Unlike scipy's, the samples always go to a caller's ``sink`` as
the steps produce them, so a caller that reduces them never holds them all.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

N_STAGES = 12  # stages of a step; stages 13-15 serve the dense output only

C = np.array([
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333,
    0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282,
    0.6, 0.857142857142857142857142857142, 1.0, 1.0,
    0.1, 0.2, 0.777777777777777777777777777778,
])

# Nonzero entries of the lower-triangular stage matrix, row by row; row 12
# is the weights B of the order-8 solution.
_A_ROWS = (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
)

# Dense-output coefficients of the Hermite terms 4-7; terms 1-3 come from
# the step's endpoints and slopes.
_D_ROWS = (
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
)


def _dense_matrix(rows):
    out = np.zeros((len(rows), C.size))
    for i, row in enumerate(rows):
        out[i, list(row)] = list(row.values())
    return out


A = _dense_matrix(_A_ROWS)
B = A[N_STAGES, :N_STAGES]
D = _dense_matrix(_D_ROWS)
# Error weights on stages 0-12 (stage 12 is the slope at the step's end):
# E5 for the order-5 estimate, E3 = B minus the order-3 weights.
E5 = np.zeros(N_STAGES + 1)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
)
E3 = np.append(B, 0.0)
E3[[0, 8, 11]] -= (
    0.244094488188976377952755905512, 0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
)

# Settings of every solve. They are fixed: the solver is one reference for
# the closed form, not a solver to tune.
RTOL = 1e-10
ATOL = 1e-12
MAX_STEP = 0.1
SAFETY = 0.9  # taken of the step the error model predicts
MIN_FACTOR = 0.2  # the least and most one step may scale the next by
MAX_FACTOR = 10
EXPONENT = -1 / 8  # -1/(q + 1) for an error estimate of order q = 7
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
REACHED_END = "The solver successfully reached the end of the integration interval."


class Solution(NamedTuple):
    """``nfev`` counts right-hand-side evaluations; on failure ``message``
    says why, and only the points reached went to the sink."""

    nfev: int
    success: bool
    message: str


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound):
    """Starting step from the size of y0, f0 and a finite-difference second
    derivative (Hairer, Norsett & Wanner, Sec. II.4)."""
    interval = abs(t_bound - t0)
    scale = ATOL + np.abs(y0) * RTOL
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    d2 = _rms((fun(t0 + h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval, MAX_STEP)


def _norm2(x):
    """``np.linalg.norm(x) ** 2`` of a 1-D float array, by numpy's own
    operations without its dispatch."""
    return np.sqrt(x.dot(x)) ** 2


def _interpolant(F, K, h, y_old, y, work):
    """Fill ``F`` with the 7 coefficient vectors of the step's order-7
    interpolant from its 16 stages ``K``; ``K[0]`` and ``K[N_STAGES]`` are
    the slopes at the step's ends and ``work`` is a buffer of y's size. The
    rows are scipy's delta, h K[0] - delta, 2 delta - h (K[N_STAGES] + K[0])
    and h (D @ K)."""
    delta = np.subtract(y, y_old, out=F[0])
    np.multiply(K[0], h, out=F[1])
    F[1] -= delta
    np.add(K[N_STAGES], K[0], out=F[2])
    F[2] *= h
    np.multiply(delta, 2, out=work)
    np.subtract(work, F[2], out=F[2])
    np.dot(D, K, out=F[3:])
    F[3:] *= h


def _evaluate(F, y_old, x, out):
    """Write the interpolant ``F`` at step fractions ``x`` into ``out``. Each
    row is computed on its own, so any split of ``x`` gives the same bits."""
    out.fill(0)  # summed onto +0 as scipy does, which turns a -0 term into +0
    x_rest = 1 - x
    for k, term in enumerate(F[::-1]):
        out += term
        out *= x if k % 2 == 0 else x_rest
    out += y_old


def solve_ivp(fun, t_span, y0, *, t_eval, sink):
    """Integrate y' = fun(t, y), y real, forward over ``t_span`` and sample
    it at the sorted points ``t_eval``, as scipy's ``solve_ivp`` does with
    ``method="DOP853"``, ``rtol=RTOL``, ``atol=ATOL`` and ``max_step=MAX_STEP``.

    A step takes 12 evaluations of ``fun``; the 3 more stages of the dense
    output are paid only on steps that cover a point of ``t_eval``. The step
    fails once it would be under 10 ulp of t. The array handed to ``fun`` is
    a buffer that the solver reuses, so ``fun`` must not keep it.

    The samples are written where ``sink(start, stop)`` says: it returns an
    array of 1 to ``stop - start`` rows of y0's size, and the solver fills
    row i with the state at ``t_eval[start + i]`` before it calls ``sink``
    again or returns. Calls run through ``t_eval`` in order, each starting
    where the last one's rows ended.
    """
    t, t_bound = map(float, t_span)
    t_eval = np.asarray(t_eval, dtype=float)
    if not (t < t_bound and t_eval.ndim == 1 and t_eval.size
            and t <= t_eval[0] and t_eval[-1] <= t_bound
            and np.all(np.diff(t_eval) > 0)):
        raise ValueError("t_span must increase and t_eval must rise within it")
    if np.iscomplexobj(y0):
        raise ValueError("y0 must be real")
    # The solver's own copy: y and y_new swap buffers at each step.
    y = np.array(y0, dtype=float)
    # Each stage state is y + (K[:s].T @ a[s]) * h formed in place, scipy's
    # operations in scipy's order; h is never folded into the tableau.
    a = [A[s, :s] for s in range(C.size)]
    c = C.tolist()
    K = np.empty((C.size, y.size))
    KT = [K[:s].T for s in range(C.size + 1)]
    stage, y_new, err = (np.empty_like(y) for _ in range(3))
    F = np.empty((7, y.size))

    def stages(first, stop, t, h, y):
        """Stages first to stop - 1 of the step of h from (t, y)."""
        for s in range(first, stop):
            state = np.dot(KT[s], a[s], out=stage)
            state *= h
            state += y
            K[s] = fun(t + c[s] * h, state)

    K[0] = f = np.asarray(fun(t, y), dtype=float)
    h_abs = _initial_step(fun, t, y, f, t_bound)
    nfev = 2  # then 12 per step tried and 3 per interpolant
    # |y| of the step's start comes from the last accepted step's |y_new|.
    abs_y, abs_new, scale = np.abs(y), np.empty(y.size), np.empty(y.size)
    done = 0  # points of t_eval filled in
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs > MAX_STEP:
            h_abs = MAX_STEP
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return Solution(nfev, False, TOO_SMALL_STEP)
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            stages(1, N_STAGES, t, h, y)
            np.dot(KT[N_STAGES], B, out=y_new)
            y_new *= h
            y_new += y
            K[N_STAGES] = fun(t + h, y_new)
            nfev += N_STAGES
            np.abs(y_new, out=abs_new)
            np.maximum(abs_y, abs_new, out=scale)
            scale *= RTOL
            scale += ATOL
            np.dot(KT[N_STAGES + 1], E5, out=err)
            err /= scale
            err5 = _norm2(err)
            np.dot(KT[N_STAGES + 1], E3, out=err)
            err /= scale
            err3 = _norm2(err)
            if err5 == 0 and err3 == 0:
                error = 0.0
            else:
                error = h_abs * err5 / np.sqrt((err5 + 0.01 * err3) * y.size)
            if error < 1:
                factor = min(MAX_FACTOR, SAFETY * error**EXPONENT) if error else MAX_FACTOR
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error**EXPONENT)
            rejected = True
        stop = np.searchsorted(t_eval, t_new, side="right")
        if stop > done:
            stages(N_STAGES + 1, C.size, t, h, y)
            nfev += C.size - N_STAGES - 1
            _interpolant(F, K, h, y, y_new, stage)
            while done < stop:
                rows = sink(done, stop)
                x = ((t_eval[done : done + len(rows)] - t) / h)[:, None]
                _evaluate(F, y, x, rows)
                done += len(rows)
        t, y, y_new, abs_y, abs_new = t_new, y_new, y, abs_new, abs_y
        K[0] = K[N_STAGES]  # the next step's first stage: its starting slope
    return Solution(nfev, True, REACHED_END)
