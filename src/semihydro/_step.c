/* The C library of semihydro: the explicit step of semihydro.solver,
   with its manufactured forcing, and the two inner loops of
   semihydro.stationary.

   Each function does what its Python counterpart does, operation by
   operation, so every double it writes has the bits Python gives: each
   sum, product and quotient keeps its operands and their order, divisions
   stay divisions, and nothing is contracted into a fused multiply-add.
   The library is built at -O3, which vectorizes the step's loops, with
   -ffp-contract=off and without -ffast-math: the compiler then neither
   reassociates nor fuses, so a vector loop gives the scalar loop's bits.
   There is no -march: on x86-64 with glibc the step's loops (advance)
   are built for AVX2 and for the baseline, and the loader picks the copy
   by the CPU when it loads the library (STEP_CLONES), so one cached
   library serves any host of the machine type, with the same bits.

   semihydro_step is one step of solver.run: it reduces the characteristic
   speeds to solver._dt's dt, applies the run's last-step rule, advances
   the state by that dt as semihydro_advance does, and sums the new
   state's trapezoid mass as np.sum does, in one call. The state lives in
   the grid's two buffer pairs: a step reads pair g->k and writes the
   other. The step also keeps the run's books in the grid, so that after
   an ordinary step the caller only takes the next one: it flips g->k,
   advances the clock g->t, counts the step in g->steps and writes its
   time, mass and clamp count into the records that the grid points at.
   Its status names what the caller must act on: a blowup, a step that
   clamped, a snapshot due (every g->stride steps, and the last), or
   records that are full. Its ctypes call converts no argument.
   semihydro_advance is the step by a given dt, solver._advance, and
   keeps no books.
   Neither takes a power: the caller passes the speeds lam1 and lam2 and
   p(n), computed by numpy; the Rusanov flux takes its radius from the
   speeds. So the run's loop stays in Python, one call per step: a loop
   over a whole stride between snapshots would have to take the powers in
   C, and the benchmark counts two numpy calls (eigenvalues and pressure)
   per step, an assertion of bench/test_bench.py that only a change of
   the benchmark may drop.

   semihydro_sum is np.sum of a contiguous array of doubles: numpy's
   pairwise summation, whose order the mass sum keeps.

   With g->forcing set, the step first evaluates the forcing of
   solver.manufactured_forcing into g->fn and g->fJ (semihydro_forcing_n
   and _J, which the library does not export), from e^-t, which numpy
   computes into g->et, and the power (1 + b_n e^-t)**(gamma - 1), which
   numpy computes into g->pw, or which is n itself where g->pw is NULL
   (gamma = 2). A forced step of the mms runs is one C call, as an
   unforced one is. Any other forcing the caller evaluates into g->fn and
   g->fJ.

   semihydro_shoot is one shooting trial of stationary._integrate. Its
   powers are libm's pow, the function CPython's float.__pow__ calls; a
   power that float.__pow__ refuses ends the trial as non-finite.

   semihydro_band_solve solves a banded system by LU with partial
   pivoting, as stationary._band_solve_numpy does in numpy.

   Build: cc -o _step.so _step.c -O3 -fPIC -shared -ffp-contract=off -lm
*/

#include <float.h>
#include <math.h>
#include <stdint.h>

#if FLT_EVAL_METHOD != 0
/* wider intermediates (x87) would round twice; the build fails, and the
   numpy and Python code runs instead */
#error "double arithmetic must round to double"
#endif

/* STEP_CLONES: two copies of a function, one built for AVX2 and one for
   the machine type's baseline; the dynamic loader picks one when it
   loads the library (an ifunc), by the CPU it runs on. Each IEEE
   operation rounds correctly at any vector width, and nothing is fused
   or reassociated, so both copies give the same bits. Elsewhere
   (another machine type, a libc without ifuncs, a compiler without the
   attribute) it is empty and the function is built once. */
#if defined(__has_attribute)
#if defined(__x86_64__) && defined(__GLIBC__) && __has_attribute(target_clones)
#define STEP_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef STEP_CLONES
#define STEP_CLONES
#endif

/* Mirrored field by field by _kernel.Forcing: the factors of the forcing
   that depend on x alone, each on the size points it is built on, and its
   constants. */
struct forcing_grid {
    long size;
    double eps, two_eps, two_pi, p0_gamma;  /* eps, 2 eps, 2 pi, p0 gamma */
    const double *a_t, *a_x, *a_xx;         /* f_n */
    const double *b_n, *b_J, *b_nx, *b_Jx, *b_Jxx, *b_E;  /* f_J */
};

/* f_n at et = e^-t: a_t et + 0.1 (1 - et) a_x - eps (a_xx et) */
static void semihydro_forcing_n(const struct forcing_grid *f, double et, double *out)
{
    const long size = f->size;
    const double eps = f->eps, c = 0.1 * (1.0 - et);
    const double *a_t = f->a_t, *a_x = f->a_x, *a_xx = f->a_xx;
    long i;

    for (i = 0; i < size; i++)
        out[i] = a_t[i] * et + c * a_x[i] - eps * (a_xx[i] * et);
}

/* f_J at et = e^-t, with the power (1 + b_n et)**(gamma - 1) on the
   points: pw[i], or n itself if exact. exact is a constant in each
   caller, so each inlined copy runs without a branch. */
static inline __attribute__((always_inline)) void
forcing_J(const struct forcing_grid *f, double et, const double *pw, double *out,
          const int exact)
{
    const long size = f->size;
    const double eps = f->eps, two_eps = f->two_eps, two_pi = f->two_pi;
    const double p0_gamma = f->p0_gamma;
    const double c = 0.1 * (1.0 - et), one_et = 1.0 - et, e4 = 0.25 * et;
    const double *b_n = f->b_n, *b_J = f->b_J, *b_nx = f->b_nx;
    const double *b_Jx = f->b_Jx, *b_Jxx = f->b_Jxx, *b_E = f->b_E;
    long i;

    for (i = 0; i < size; i++) {
        const double n = 1.0 + b_n[i] * et;
        const double J = b_J[i] * one_et;
        const double n_x = b_nx[i] * et;
        const double J_x = c * b_Jx[i];
        const double J_t = b_J[i] * et;
        const double J_xx = c * b_Jxx[i];
        const double E = e4 * b_E[i] / two_pi;
        const double conv_x = (2.0 * J * J_x * n - J * J * n_x) / (n * n);
        const double p_x = p0_gamma * (exact ? n : pw[i]) * n_x;
        /* J_t + (J^2/n + p)_x - eps J_xx - nE + J + 2 eps n_x */
        out[i] = J_t + conv_x + p_x - eps * J_xx - n * E + J + two_eps * n_x;
    }
}

/* f_J at et = e^-t, with pw = (1 + b_n et)**(gamma - 1) on the points, or
   NULL at gamma = 2, where the power is n**1.0, which numpy gives as n
   bit for bit */
static void semihydro_forcing_J(const struct forcing_grid *f, double et, const double *pw,
                                double *out)
{
    if (pw)
        forcing_J(f, et, pw, out, 0);
    else
        forcing_J(f, et, pw, out, 1);
}

/* Mirrored field by field by _kernel.Grid. */
struct step_grid {
    long N;                     /* cells; every node array holds N + 1 */
    double eps, dx, floor;
    double cfl;                 /* cfl_safety */
    double n_lo, n_hi;          /* the wall densities of dirichlet walls */
    int rusanov, float_walls;
    double *state;              /* n, J of pair 0, then n, J of pair 1 */
    const double *d;            /* doping on the nodes */
    const double *p;            /* p(n) on the nodes */
    const double *lam1, *lam2;  /* the characteristic speeds on the nodes */
    double *fn, *fJ;            /* forcing on the N - 1 interior nodes, or NULL */
    const struct forcing_grid *forcing;  /* evaluated into fn, fJ by the step, or NULL */
    const double *pw;           /* with forcing: (1 + b_n et)**(gamma - 1) on its
                                   points, or NULL at gamma = 2 */
    double *E, *f2, *r, *h1, *h2;   /* scratch, N + 1 each */
    double *terms;              /* scratch: the N trapezoid mass terms of nn */
    int k;                      /* the buffer pair (0 or 1) that holds the state */
    double t, T;                /* semihydro_step: the time, and T_final */
    double et;                  /* in, with forcing: e^-t at the step's start */
    double dt;                  /* out of semihydro_step: the step's dt */
    double mass;                /* out: np.sum of the mass terms */
    long count;                 /* out: clamped cells, or the blowup's cell */
    long stride;                /* semihydro_step: a snapshot every stride steps */
    long steps;                 /* semihydro_step: the steps taken */
    long cap;                   /* the records' capacity in steps */
    double *times, *masses;     /* records, cap + 1 each: t and the mass after
                                   each step, the start at [0] */
    int64_t *clamps;            /* records, cap: the clamp count of each step */
};

/* A step's status: 0, a blowup, or the bits of the events that semihydro_step
   reports; _kernel mirrors them. */
enum { STEP_OK = 0, STEP_NONFINITE = 1, STEP_VACUUM = 2, STEP_CLAMPED = 4,
       STEP_SNAPSHOT = 8, STEP_LAST = 16, STEP_FULL = 32 };

/* np.maximum: NaN if either operand is NaN, the first if both are */
static inline double maximum(double a, double b)
{
    return isnan(a) || a >= b ? a : b;
}

/* The interior nodes 1 .. N - 1, one loop per scheme and forcing: the
   callers pass constants, so each inlined copy runs without a branch. */
static inline __attribute__((always_inline)) void
interior(const struct step_grid *g, const double *restrict n, const double *restrict J,
         double *restrict nn, double *restrict JJ, double dt, const int rusanov,
         const int forced)
{
    const long N = g->N;
    const double eps = g->eps, dx = g->dx;
    const double dx2 = dx * dx, two_dx = 2.0 * dx, two_eps = 2.0 * eps;
    const double *restrict E = g->E, *restrict f2 = g->f2;
    const double *restrict h1 = g->h1, *restrict h2 = g->h2;
    const double *restrict fn = g->fn, *restrict fJ = g->fJ;
    long i;

    for (i = 1; i < N; i++) {
        double div_n, div_J, rhs_n, rhs_J, grad_n;
        if (rusanov) {
            div_n = (h1[i] - h1[i - 1]) / dx;
            div_J = (h2[i] - h2[i - 1]) / dx;
        } else {
            div_n = (J[i + 1] - J[i - 1]) / two_dx;
            div_J = (f2[i + 1] - f2[i - 1]) / two_dx;
        }
        /* rhs_n = -div_n + eps * lap_n */
        rhs_n = (n[i + 1] - n[i] * 2.0 + n[i - 1]) / dx2 * eps - div_n;
        /* rhs_J = -div_J + eps * lap_J + n E - 2 eps grad_n, then - J */
        rhs_J = (J[i + 1] - J[i] * 2.0 + J[i - 1]) / dx2 * eps - div_J;
        rhs_J += n[i] * E[i];
        grad_n = (n[i + 1] - n[i - 1]) / two_dx;
        rhs_J -= grad_n * two_eps;
        if (forced) {
            rhs_n += fn[i - 1];
            rhs_J += fJ[i - 1];
        }
        rhs_J -= J[i];
        nn[i] = n[i] + rhs_n * dt;                      /* n + dt * rhs_n */
        JJ[i] = J[i] + rhs_J * dt;                      /* J + dt * rhs_J */
    }
}

/* numpy's pairwise summation of a[0 .. n - 1], the order of np.sum on a
   contiguous array: fewer than 8 terms in turn, blocks of at most 128
   with 8 accumulators, and longer ranges split in two at a multiple of 8
   below the middle. */
static double pairwise(const double *a, long n)
{
    double r[8], res;
    long i, n2;
    int j;

    if (n < 8) {
        res = 0.0;
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        for (j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (j = 0; j < 8; j++)
                r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* np.sum(a) for the n doubles at a: the reduction adds the pairwise sum
   to its initial value, 0.0 */
double semihydro_sum(const double *a, long n)
{
    return 0.0 + pairwise(a, n);
}

/* advances (n, J) by dt into (nn, JJ) as solver._advance does, and sums
   the trapezoid mass of nn into g->mass. Returns STEP_OK, with the
   clamped cells in g->count, or the blowup and its cell. Kept out of
   line: its four arrays are restrict parameters here, while in
   semihydro_advance they are offsets into the one array g->state. Its
   loops are the step's work, so it is the function built twice
   (STEP_CLONES). */
static STEP_CLONES __attribute__((noinline)) int
advance(struct step_grid *g, const double *restrict n, const double *restrict J,
        double *restrict nn, double *restrict JJ, double dt)
{
    const long N = g->N;
    const double eps = g->eps, dx = g->dx, floor = g->floor;
    const double *restrict d = g->d, *restrict p = g->p;
    const double *restrict lam1 = g->lam1, *restrict lam2 = g->lam2;
    /* not restrict: interior() reads E, f2, h1 and h2 through g */
    double *E = g->E, *f2 = g->f2, *r = g->r, *h1 = g->h1, *h2 = g->h2;
    double *terms = g->terms;
    double h_lo, h_hi, flux_lo, flux_hi;
    long i, count;
    int bad;

    /* E: cumulative trapezoid of n - d with E[0] = 0; the first partial
       sum is the first term itself, as np.add.accumulate takes it */
    E[0] = 0.0;
    for (i = 1; i <= N; i++)
        E[i] = ((n[i] - d[i]) + (n[i - 1] - d[i - 1])) * dx / 2.0;
    for (i = 2; i <= N; i++)
        E[i] = E[i - 1] + E[i];

    for (i = 0; i <= N; i++)
        f2[i] = J[i] * J[i] / n[i] + p[i];              /* J*J/n + p(n) */

    if (g->rusanov) {
        /* interface fluxes with the local spectral radius; h1, h2 hold
           hat1, hat2 on the N faces. The radius |J/n| + theta n**theta is
           max(|lam1|, |lam2|) bit for bit: with lam = J/n -+ c and c >= 0,
           one of |J/n - c|, |J/n + c| is the rounded |J/n| + c and the
           other cannot exceed it, and both are NaN where it is */
        for (i = 0; i <= N; i++)
            r[i] = maximum(fabs(lam1[i]), fabs(lam2[i]));
        for (i = 0; i < N; i++) {
            const double a = maximum(r[i], r[i + 1]);
            h1[i] = 0.5 * (J[i] + J[i + 1]) - 0.5 * a * (n[i + 1] - n[i]);
            h2[i] = 0.5 * (f2[i] + f2[i + 1]) - 0.5 * a * (J[i + 1] - J[i]);
        }
        h_lo = h1[0];
        h_hi = h1[N - 1];
        if (g->fn)
            interior(g, n, J, nn, JJ, dt, 1, 1);
        else
            interior(g, n, J, nn, JJ, dt, 1, 0);
    } else {
        h_lo = (J[0] + J[1]) / 2.0;
        h_hi = (J[N - 1] + J[N]) / 2.0;
        if (g->fn)
            interior(g, n, J, nn, JJ, dt, 0, 1);
        else
            interior(g, n, J, nn, JJ, dt, 0, 0);
    }
    flux_lo = h_lo - eps * (n[1] - n[0]) / dx;
    flux_hi = h_hi - eps * (n[N] - n[N - 1]) / dx;

    if (g->float_walls) {
        /* zero-flux half cells of width dx/2: the trapezoid mass telescopes */
        nn[0] = n[0] - dt * flux_lo / (dx / 2.0);
        nn[N] = n[N] + dt * flux_hi / (dx / 2.0);
    } else {
        nn[0] = g->n_lo;
        nn[N] = g->n_hi;
    }
    JJ[0] = 0.0;
    JJ[N] = 0.0;

    bad = 0;
    for (i = 0; i <= N; i++)
        bad |= !isfinite(nn[i]) | !isfinite(JJ[i]);
    if (bad) {
        for (i = 0; isfinite(nn[i]) && isfinite(JJ[i]); i++)
            ;
        g->count = i;
        return STEP_NONFINITE;
    }
    if (floor <= 0.0) {
        for (i = 0; i <= N; i++)
            bad |= !(nn[i] > 0.0);
        if (bad) {
            long low = 0;
            for (i = 1; i <= N; i++)
                if (nn[i] < nn[low])
                    low = i;                            /* np.argmin: the first */
            g->count = low;
            return STEP_VACUUM;
        }
    }
    count = 0;
    for (i = 0; i <= N; i++) {
        const int below = nn[i] < floor;
        count += below;
        nn[i] = below ? floor : nn[i];
    }
    g->count = count;

    for (i = 0; i < N; i++)
        terms[i] = (nn[i + 1] + nn[i]) * dx / 2.0;     /* dx * (n[1:] + n[:-1]) / 2.0 */
    g->mass = semihydro_sum(terms, N);                  /* np.trapezoid(nn, dx=dx) */
    return STEP_OK;
}

/* semihydro_advance: the step by dt from the state in buffer pair g->k
   into the other pair; see advance. With g->forcing set, the forcing at
   g->et, with the power g->pw (NULL at gamma = 2), is evaluated into
   g->fn and g->fJ first. The Rusanov flux reads the speeds g->lam1 and
   g->lam2 of the state. */
int semihydro_advance(struct step_grid *g, double dt)
{
    const long size = g->N + 1;
    double *src = g->state + 2 * size * g->k, *dst = g->state + 2 * size * (1 - g->k);

    if (g->forcing) {
        semihydro_forcing_n(g->forcing, g->et, g->fn);
        semihydro_forcing_J(g->forcing, g->et, g->pw, g->fJ);
    }
    return advance(g, src, src + size, dst, dst + size, dt);
}

/* semihydro_step: a step of solver.run's loop from t = g->t toward
   T = g->T, from the state in buffer pair g->k into the other pair. Its
   dt is solver._dt's, from the speeds in g->lam1 and g->lam2:

       speed = max(lam2.max(), -lam1.min())
       dt = cfl * min(dx / speed, dx * dx / (2 eps), 1)

   with numpy's NaN propagation in the reductions and Python's max and
   min, which keep their first argument unless a later one is strictly
   larger (smaller). Each reduction runs two accumulators, on the even and
   the odd nodes, so that consecutive comparisons do not wait for each
   other; without NaN the extreme value is the same. A step that would
   stop within 1e-13 of T ends on it: dt = T - t. g->dt receives dt; then
   the step is semihydro_advance's.

   A blowup returns its status with the grid's clock as it was. Otherwise
   the step keeps the run's books: g->k names the new pair, g->t becomes
   T on the last step and t + dt before it, g->steps counts the step, and
   the records receive its time, mass and clamp count. It returns the
   bits of the events the caller must act on: STEP_CLAMPED if it clamped,
   STEP_SNAPSHOT every g->stride steps and on the last, which is also
   STEP_LAST, and STEP_FULL once the records hold g->cap steps. */
int semihydro_step(struct step_grid *g)
{
    const long N = g->N;
    const double t = g->t, T = g->T;
    const double *restrict lam1 = g->lam1, *restrict lam2 = g->lam2;
    const double dx = g->dx;
    double hi0 = lam2[0], hi1 = lam2[0], lo0 = lam1[0], lo1 = lam1[0];
    double hi, lo, speed, dt, bound;
    int nan_hi = isnan(lam2[0]), nan_lo = isnan(lam1[0]), last, status;
    long i, steps;

    for (i = 1; i < N; i += 2) {
        hi0 = lam2[i] > hi0 ? lam2[i] : hi0;
        hi1 = lam2[i + 1] > hi1 ? lam2[i + 1] : hi1;
        lo0 = lam1[i] < lo0 ? lam1[i] : lo0;
        lo1 = lam1[i + 1] < lo1 ? lam1[i + 1] : lo1;
        nan_hi |= isnan(lam2[i]) | isnan(lam2[i + 1]);
        nan_lo |= isnan(lam1[i]) | isnan(lam1[i + 1]);
    }
    if (i == N) {                                       /* N odd: node N is left */
        hi0 = lam2[N] > hi0 ? lam2[N] : hi0;
        lo0 = lam1[N] < lo0 ? lam1[N] : lo0;
        nan_hi |= isnan(lam2[N]);
        nan_lo |= isnan(lam1[N]);
    }
    hi = nan_hi ? NAN : hi1 > hi0 ? hi1 : hi0;
    lo = nan_lo ? NAN : lo1 < lo0 ? lo1 : lo0;
    speed = -lo > hi ? -lo : hi;                        /* Python's max(hi, -lo) */
    dt = dx / speed;
    bound = dx * dx / (2.0 * g->eps);
    if (bound < dt)
        dt = bound;
    if (1.0 < dt)
        dt = 1.0;
    dt = g->cfl * dt;
    last = t + dt >= T - 1e-13;
    if (last)
        dt = T - t;
    g->dt = dt;
    status = semihydro_advance(g, dt);
    if (status)
        return status;

    g->k = 1 - g->k;
    g->t = last ? T : t + dt;
    steps = ++g->steps;
    g->times[steps] = g->t;
    g->masses[steps] = g->mass;
    g->clamps[steps - 1] = g->count;
    if (g->count)
        status |= STEP_CLAMPED;
    if (last)
        status |= STEP_SNAPSHOT | STEP_LAST;
    else if (steps % g->stride == 0)
        status |= STEP_SNAPSHOT;
    if (steps == g->cap)
        status |= STEP_FULL;
    return status;
}

/* semihydro_shoot: classical RK4 on the inviscid steady ODE
   N' = c E N**ex, E' = N - D from (N0, 0), over the N cells of the grid
   (h = 1/N), with the doping d2 on the nodes and midpoints (2N + 1
   values); Nt and Et receive the N + 1 node values. A density below
   floor or above cap (NaN passes) ends the trial at its step's node, and
   so does a non-finite state after a step, at the step's end node; *at
   receives the node. A power of a finite base that float.__pow__ refuses
   (pow gives an infinity: 0 to a negative power, or an overflow) ends the
   trial as non-finite at its step's start node; an infinite base runs on. */
enum { SHOOT_OK = 0, SHOOT_BELOW = 1, SHOOT_ABOVE = 2, SHOOT_NONFINITE = 3 };

int semihydro_shoot(long N, double N0, const double *d2, double c, double ex,
                    double floor, double cap, double *Nt, double *Et, long *at)
{
    const double h = 1.0 / N;
    const double hh = 0.5 * h;
    double y1 = N0, y2 = 0.0;
    long i;

    Nt[0] = y1;
    Et[0] = y2;
    for (i = 0; i < N; i++) {
        const double d0 = d2[2 * i], dm = d2[2 * i + 1], d1 = d2[2 * i + 2];
        double a, b, p, k1a, k1b, k2a, k2b, k3a, k3b, k4a, k4b;
        *at = i;
#define CHECK(v) do { if ((v) < floor) return SHOOT_BELOW;             \
                      if ((v) > cap) return SHOOT_ABOVE; } while (0)
#define POWER(v) do { p = pow((v), ex);                                \
                      if (isinf(p) && isfinite(v)) return SHOOT_NONFINITE; } while (0)
        CHECK(y1);
        POWER(y1);
        k1a = c * y2 * p;
        k1b = y1 - d0;
        a = y1 + hh * k1a;
        b = y2 + hh * k1b;
        CHECK(a);
        POWER(a);
        k2a = c * b * p;
        k2b = a - dm;
        a = y1 + hh * k2a;
        b = y2 + hh * k2b;
        CHECK(a);
        POWER(a);
        k3a = c * b * p;
        k3b = a - dm;
        a = y1 + h * k3a;
        b = y2 + h * k3b;
        CHECK(a);
        POWER(a);
        k4a = c * b * p;
        k4b = a - d1;
#undef CHECK
#undef POWER
        y1 += h * (k1a + 2.0 * k2a + 2.0 * k3a + k4a) / 6.0;
        y2 += h * (k1b + 2.0 * k2b + 2.0 * k3b + k4b) / 6.0;
        if (!(isfinite(y1) && isfinite(y2))) {
            *at = i + 1;
            return SHOOT_NONFINITE;
        }
        Nt[i + 1] = y1;
        Et[i + 1] = y2;
    }
    return SHOOT_OK;
}

/* semihydro_band_solve: solves A x = b for the n x n matrix A with kl
   sub- and ku superdiagonals, in LAPACK's band storage with leading
   dimension 2 kl + ku + 1: A(i, j) at ab[kl + ku + i + j * (2 kl + ku)],
   the first kl rows of each column zero (room for the fill-in). Gaussian
   elimination with partial pivoting, as LAPACK's dgbtf2 orders it, with
   the row operations applied to b as they are made (dgbtrs's forward
   solve), then back substitution by columns (dtbsv). Multipliers are
   quotients by the pivot. Overwrites ab with the factors and b with x;
   returns 0, or j + 1 for the first exactly zero pivot, column j. */
int semihydro_band_solve(long n, long kl, long ku, double *ab, double *b)
{
    const long kv = kl + ku;
#define A(i, j) ab[kv + (i) + (j) * (2 * kl + ku)]
    long j, i, k, ju = 0;

    for (j = 0; j < n; j++) {
        const long km = kl < n - 1 - j ? kl : n - 1 - j;
        long p = j;
        double best = fabs(A(j, j));
        /* the first largest |A(i, j)|, or the first NaN, as np.argmax */
        for (i = j + 1; i <= j + km && !isnan(best); i++) {
            double v = fabs(A(i, j));
            if (isnan(v) || v > best) {
                best = v;
                p = i;
            }
        }
        if (A(p, j) == 0.0)
            return (int)(j + 1);
        if (p + ku > ju)
            ju = p + ku < n - 1 ? p + ku : n - 1;
        if (p != j) {
            for (k = j; k <= ju; k++) {
                double t = A(j, k);
                A(j, k) = A(p, k);
                A(p, k) = t;
            }
            double t = b[j];
            b[j] = b[p];
            b[p] = t;
        }
        for (i = j + 1; i <= j + km; i++)
            A(i, j) = A(i, j) / A(j, j);
        for (k = j + 1; k <= ju; k++)
            for (i = j + 1; i <= j + km; i++)
                A(i, k) = A(i, k) - A(i, j) * A(j, k);
        for (i = j + 1; i <= j + km; i++)
            b[i] = b[i] - A(i, j) * b[j];
    }
    for (j = n - 1; j >= 0; j--) {
        b[j] = b[j] / A(j, j);
        for (i = j - kv > 0 ? j - kv : 0; i < j; i++)
            b[i] = b[i] - b[j] * A(i, j);
    }
#undef A
    return 0;
}
