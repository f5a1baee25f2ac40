/* The C library of semihydro: the explicit step of semihydro.solver,
   with its manufactured forcing, the two inner loops of
   semihydro.stationary, and the float text of semihydro.io.

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
   the state by that dt as solver._advance does (advance, which the
   library does not export), and sums the new state's trapezoid mass as
   np.sum does, in one call. The state lives in the grid's two buffer
   pairs: a step reads pair g->k and writes the other. The step also keeps
   the run's books in the grid, so that after an ordinary step the caller
   only takes the next one: it flips g->k, advances the clock g->t, counts
   the step in g->steps and writes its time, mass and clamp count into the
   records that the grid points at. Its status names what the caller must
   act on: a blowup, a step that clamped, a snapshot due (every g->stride
   steps, and the last), or records that are full. Its ctypes call
   converts no argument.
   It takes no power: the caller passes the speeds lam1 and lam2 and
   p(n), computed by numpy; the Rusanov flux takes its radius from the
   speeds. So the run's loop stays in Python, one call per step: a loop
   over a whole stride between snapshots would have to take the powers in
   C, and the benchmark counts two numpy calls (eigenvalues and pressure)
   per step, an assertion of bench/test_bench.py that only a change of
   the benchmark may drop.

   semihydro_sum is np.sum of a contiguous array of doubles: numpy's
   pairwise summation, whose order the mass sum keeps.

   With g->forcing set, the step first evaluates the forcing of
   solver.manufactured_forcing at gamma = 2 into g->fn and g->fJ
   (semihydro_forcing_n and _J, which the library does not export), from
   e^-t, which numpy computes into g->et. At gamma = 2 the forcing's power
   (1 + b_n e^-t)**(gamma - 1) is its base n, as numpy gives it, so the
   loops take no power. A forced step of the mms runs is one C call, as
   an unforced one is. Any other forcing, the same pair at another gamma
   among them, the caller evaluates into g->fn and g->fJ.

   semihydro_shoot is one shooting trial of stationary._integrate. Its
   powers are libm's pow, the function CPython's float.__pow__ calls; a
   power that float.__pow__ refuses ends the trial as non-finite.

   semihydro_band_solve solves a banded system by LU with partial
   pivoting, as stationary._band_solve_numpy does in numpy.

   semihydro_format writes a table of doubles as the text io writes:
   each value with the bytes of Python's "%.17g" % x. It forms the 17
   digits of the doubles the program writes exactly in integer
   arithmetic, without printf or the locale; it returns -1, and io then
   formats the table by Python's %, for a non-finite value, or where a
   rare value that needs snprintf meets a decimal point other than '.'.

   Build: cc -o _step.so _step.c -O3 -fPIC -shared -ffp-contract=off -lm
*/

#include <float.h>
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

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

/* f_J at et = e^-t and gamma = 2, where the power (1 + b_n et)**(gamma - 1)
   is n**1.0, which numpy gives as n bit for bit */
static void semihydro_forcing_J(const struct forcing_grid *f, double et, double *out)
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
        const double p_x = p0_gamma * n * n_x;
        /* J_t + (J^2/n + p)_x - eps J_xx - nE + J + 2 eps n_x */
        out[i] = J_t + conv_x + p_x - eps * J_xx - n * E + J + two_eps * n_x;
    }
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
   semihydro_step they are offsets into the one array g->state. Its
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
   stop within 1e-13 of T ends on it: dt = T - t. g->dt receives dt.
   With g->forcing set, the gamma = 2 forcing at g->et is evaluated into
   g->fn and g->fJ; then advance takes the step by dt. The Rusanov flux
   reads the speeds g->lam1 and g->lam2 of the state.

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
    const long size = N + 1;
    double *src = g->state + 2 * size * g->k, *dst = g->state + 2 * size * (1 - g->k);
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
    if (g->forcing) {
        semihydro_forcing_n(g->forcing, g->et, g->fn);
        semihydro_forcing_J(g->forcing, g->et, g->fJ);
    }
    status = advance(g, src, src + size, dst, dst + size, dt);
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

/* semihydro_format: the rows x cols doubles at v (C order) as text, each
   value with the bytes of Python's "%.17g" % x, the values of a row
   joined by ',' and each row ended by '\n', into out, which holds cap
   bytes. Returns the number of bytes written, or -1 for a non-finite
   value, a decimal point other than '.' where snprintf is needed, or text
   that would not fit in cap (FORMAT_CELL bytes a value always do).

   A normal double with 1e-22 <= |x| < 1e17 takes no printf and no
   locale: with x = m 2^e and k = floor(log10 |x|), D = m 10^(16 - k) 2^e
   is formed exactly in three 64-bit limbs (10^(16 - k) <= 10^38 fits an
   unsigned __int128) and rounded to an integer half to even, from a round
   and a sticky bit; D then holds the 17 significant digits that Python's
   correctly rounded conversion gives. k is estimated from the binary
   exponent and the mantissa, which may miss it by one next to a power of
   ten, so k is corrected while the unrounded D lies outside
   [10^16, 10^17), and a rounding carry to 10^17 becomes 10^16 at k + 1.
   The digits are laid out as %g lays them out at precision 17: the
   exponent form for k < -4 or k >= 17, with a sign and two exponent
   digits, the fixed form otherwise, trailing zeros and a bare '.'
   dropped. Any other finite value goes through snprintf("%.17g"), which
   also rounds correctly, while localeconv() reports '.' as the decimal
   point; so does every value without __SIZEOF_INT128__. */

/* the longest text of a value, -2.2250738585072014e-308, and its ',' or '\n' */
enum { FORMAT_CELL = 25 };

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

/* bits [pos, pos + 64) of the 256-bit number w[0] + w[1] 2^64 + ..., pos < 192 */
static inline uint64_t limb_bits(const uint64_t *w, int pos)
{
    const int i = pos >> 6, o = pos & 63;
    return o ? (w[i] >> o) | (w[i + 1] << (64 - o)) : w[i];
}

/* D and k of a normal double 1e-22 <= a < 1e17, a ~ D 10^(k - 16) with
   D in [10^16, 10^17); 0 if k leaves [-22, 16] (then snprintf runs) */
static int digits17(double a, const u128 *pow10, uint64_t *D, int *k_out)
{
    const uint64_t lo17 = 10000000000000000ULL, hi17 = 100000000000000000ULL;
    uint64_t bits, m, w[4], q, round, sticky;
    int e, k, tries;

    memcpy(&bits, &a, sizeof bits);
    m = (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
    e = (int)((bits >> 52) & 0x7ff) - 1075;             /* a = m 2^e */
    /* log10 a from log2 a ~ its exponent plus the mantissa's fraction,
       which is below log2 a by at most 0.086: k is at most one off */
    k = (int)floor(((double)(e + 52) + (double)(m - (1ULL << 52)) * 0x1p-52 + 0.043)
                   * 0.30102999566398119521);
    for (tries = 0; tries < 3; tries++) {
        const int s = 16 - k;
        u128 p, lo, hi, mid;
        if (s < 0 || s > 38)
            return 0;
        p = pow10[s];
        lo = (u128)m * (uint64_t)p;                     /* w = m 10^s */
        hi = (u128)m * (uint64_t)(p >> 64);
        mid = (lo >> 64) + (uint64_t)hi;
        w[0] = (uint64_t)lo;
        w[1] = (uint64_t)mid;
        w[2] = (uint64_t)(hi >> 64) + (uint64_t)(mid >> 64);
        w[3] = 0;
        round = sticky = 0;
        if (e >= 0) {
            /* a >= 2^52, so s <= 2 and w < 2^60; a shift by e <= 4 keeps it in 64 bits */
            q = w[1] || w[2] || w[0] >> (63 - e) ? hi17 : w[0] << e;
        } else {
            const int sh = -e, r = sh - 1;
            int j;
            q = limb_bits(w, sh);
            if (limb_bits(w, sh + 64) || (sh < 64 && limb_bits(w, sh + 128)))
                q = hi17;                               /* far above 10^17 */
            round = (w[r >> 6] >> (r & 63)) & 1;
            sticky = w[r >> 6] & ((1ULL << (r & 63)) - 1);
            for (j = 0; j < r >> 6; j++)
                sticky |= w[j];
        }
        if (q < lo17) {
            k--;
        } else if (q >= hi17) {
            k++;
        } else {
            if (round && (sticky || (q & 1)))
                q++;                                    /* half to even */
            if (q == hi17) {
                q = lo17;
                k++;
            }
            *D = q;
            *k_out = k;
            return 1;
        }
    }
    return 0;
}

/* x != 0 normal with 1e-22 <= |x| < 1e17: its %.17g text at o; the end */
static char *format_fast(char *o, double x, uint64_t D, int k)
{
    static const char pairs[] =
        "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
        "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
        "8081828384858687888990919293949596979899";
    char d[17];
    int i, nd = 17;

    {
        /* D = hi 10^8 + lo: 32-bit halves */
        uint32_t hi = (uint32_t)(D / 100000000), lo = (uint32_t)(D % 100000000);
        for (i = 16; i > 8; i -= 2) {
            const uint32_t r = lo % 100;
            lo /= 100;
            d[i - 1] = pairs[2 * r];
            d[i] = pairs[2 * r + 1];
        }
        for (; i > 0; i -= 2) {
            const uint32_t r = hi % 100;
            hi /= 100;
            d[i - 1] = pairs[2 * r];
            d[i] = pairs[2 * r + 1];
        }
        d[0] = (char)('0' + hi);
    }
    while (d[nd - 1] == '0')
        nd--;
    if (signbit(x))
        *o++ = '-';
    if (k < -4 || k >= 17) {
        const int ak = k < 0 ? -k : k;
        *o++ = d[0];
        if (nd > 1) {
            *o++ = '.';
            memcpy(o, d + 1, nd - 1);
            o += nd - 1;
        }
        *o++ = 'e';
        *o++ = k < 0 ? '-' : '+';
        *o++ = (char)('0' + ak / 10);
        *o++ = (char)('0' + ak % 10);
    } else if (k >= 0) {
        memcpy(o, d, k + 1);
        o += k + 1;
        if (nd > k + 1) {
            *o++ = '.';
            memcpy(o, d + k + 1, nd - k - 1);
            o += nd - k - 1;
        }
    } else {
        *o++ = '0';
        *o++ = '.';
        for (i = 0; i < -k - 1; i++)
            *o++ = '0';
        memcpy(o, d, nd);
        o += nd;
    }
    return o;
}
#endif

long semihydro_format(const double *v, long rows, long cols, char *out, long cap)
{
    char *o = out;
    const char *const end = out + cap;
    int point = 0;                                      /* '.' checked */
    long i, j;
#ifdef __SIZEOF_INT128__
    u128 pow10[39];

    pow10[0] = 1;
    for (i = 1; i < 39; i++)
        pow10[i] = pow10[i - 1] * 10;
#endif

    for (i = 0; i < rows; i++) {
        for (j = 0; j < cols; j++) {
            const double x = v[i * cols + j];
            const double a = fabs(x);
            int n;
            if (end - o < FORMAT_CELL || !isfinite(x))
                return -1;
            if (a == 0.0) {
                if (signbit(x))
                    *o++ = '-';
                *o++ = '0';
                *o++ = j + 1 < cols ? ',' : '\n';
                continue;
            }
#ifdef __SIZEOF_INT128__
            if (a >= 1e-22 && a < 1e17) {
                uint64_t D;
                int k;
                if (digits17(a, pow10, &D, &k)) {
                    o = format_fast(o, x, D, k);
                    *o++ = j + 1 < cols ? ',' : '\n';
                    continue;
                }
            }
#endif
            if (!point) {
                if (strcmp(localeconv()->decimal_point, ".") != 0)
                    return -1;
                point = 1;
            }
            n = snprintf(o, (size_t)(end - o), "%.17g", x);
            if (n < 0 || n >= FORMAT_CELL)
                return -1;
            o += n;
            *o++ = j + 1 < cols ? ',' : '\n';
        }
    }
    return (long)(o - out);
}
