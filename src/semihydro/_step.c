/* The explicit step of semihydro.solver in C, for the run loop.

   semihydro_step advances (n, J) by dt into (nn, JJ) as solver._advance
   does, operation by operation, so every double it writes has the bits
   numpy gives: each sum, product and quotient keeps its operands and their
   order, divisions stay divisions, and nothing is contracted into a fused
   multiply-add (the library is built with -ffp-contract=off and without
   -ffast-math). No power is taken here: the caller passes p(n) and, for
   the Rusanov flux, theta * n**theta, both computed by numpy.

   Build: cc -O2 -fPIC -shared -ffp-contract=off -o _step.so _step.c
*/

#include <float.h>
#include <math.h>

#if FLT_EVAL_METHOD != 0
/* wider intermediates (x87) would round twice; the numpy step runs instead */
#error "double arithmetic must round to double"
#endif

/* Mirrored field by field by solver._Grid. */
struct step_grid {
    long N;                     /* cells; every node array holds N + 1 */
    double eps, dx, floor;
    double n_lo, n_hi;          /* the wall densities of dirichlet walls */
    int rusanov, float_walls;
    const double *d;            /* doping on the nodes */
    const double *p;            /* p(n) on the nodes */
    const double *c;            /* theta * n**theta on the nodes (rusanov) */
    const double *fn, *fJ;      /* forcing on the N - 1 interior nodes, or NULL */
    double *E, *f2, *h1, *h2;   /* scratch, N + 1 each */
    double *terms;              /* out: the N trapezoid mass terms of nn */
    long count;                 /* out: clamped cells, or the blowup's cell */
};

enum { STEP_OK = 0, STEP_NONFINITE = 1, STEP_VACUUM = 2 };

/* np.maximum: NaN if either operand is NaN */
static double maximum(double a, double b)
{
    if (isnan(a))
        return a;
    if (isnan(b))
        return b;
    return a >= b ? a : b;
}

int semihydro_step(struct step_grid *g, const double *n, const double *J,
                   double *nn, double *JJ, double dt)
{
    const long N = g->N;
    const double eps = g->eps, dx = g->dx;
    double *E = g->E, *f2 = g->f2, *h1 = g->h1, *h2 = g->h2;
    double h_lo, h_hi, flux_lo, flux_hi;
    long i;

    /* E: cumulative trapezoid of n - d with E[0] = 0; the first partial
       sum is the first term itself, as np.add.accumulate takes it */
    E[0] = 0.0;
    for (i = 1; i <= N; i++) {
        double s = (n[i] - g->d[i]) + (n[i - 1] - g->d[i - 1]);
        s = s * dx / 2.0;
        E[i] = i == 1 ? s : E[i - 1] + s;
    }

    for (i = 0; i <= N; i++)
        f2[i] = J[i] * J[i] / n[i] + g->p[i];           /* J*J/n + p(n) */

    if (g->rusanov) {
        /* interface fluxes with the local spectral radius; h1, h2 hold
           hat1, hat2 on the N faces */
        double r1 = fabs(J[0] / n[0]) + g->c[0];
        for (i = 0; i < N; i++) {
            double r0 = r1;
            double a;
            r1 = fabs(J[i + 1] / n[i + 1]) + g->c[i + 1];
            a = maximum(r0, r1);
            h1[i] = 0.5 * (J[i] + J[i + 1]) - 0.5 * a * (n[i + 1] - n[i]);
            h2[i] = 0.5 * (f2[i] + f2[i + 1]) - 0.5 * a * (J[i + 1] - J[i]);
        }
        h_lo = h1[0];
        h_hi = h1[N - 1];
    } else {
        h_lo = (J[0] + J[1]) / 2.0;
        h_hi = (J[N - 1] + J[N]) / 2.0;
    }
    flux_lo = h_lo - eps * (n[1] - n[0]) / dx;
    flux_hi = h_hi - eps * (n[N] - n[N - 1]) / dx;

    for (i = 1; i < N; i++) {
        double div_n, div_J, rhs_n, rhs_J, grad_n;
        if (g->rusanov) {
            div_n = (h1[i] - h1[i - 1]) / dx;
            div_J = (h2[i] - h2[i - 1]) / dx;
        } else {
            div_n = (J[i + 1] - J[i - 1]) / (2.0 * dx);
            div_J = (f2[i + 1] - f2[i - 1]) / (2.0 * dx);
        }
        /* rhs_n = -div_n + eps * lap_n */
        rhs_n = (n[i + 1] - n[i] * 2.0 + n[i - 1]) / (dx * dx) * eps - div_n;
        /* rhs_J = -div_J + eps * lap_J + n E - 2 eps grad_n, then - J */
        rhs_J = (J[i + 1] - J[i] * 2.0 + J[i - 1]) / (dx * dx) * eps - div_J;
        rhs_J += n[i] * E[i];
        grad_n = (n[i + 1] - n[i - 1]) / (2.0 * dx);
        rhs_J -= grad_n * (2.0 * eps);
        if (g->fn) {
            rhs_n += g->fn[i - 1];
            rhs_J += g->fJ[i - 1];
        }
        rhs_J -= J[i];
        nn[i] = n[i] + rhs_n * dt;                      /* n + dt * rhs_n */
        JJ[i] = J[i] + rhs_J * dt;                      /* J + dt * rhs_J */
    }

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

    for (i = 0; i <= N; i++) {
        if (!isfinite(nn[i]) || !isfinite(JJ[i])) {
            g->count = i;
            return STEP_NONFINITE;
        }
    }
    if (g->floor <= 0.0) {
        long low = 0;
        int vacuum = 0;
        for (i = 0; i <= N; i++) {
            vacuum |= !(nn[i] > 0.0);
            if (nn[i] < nn[low])
                low = i;                                /* np.argmin: the first */
        }
        if (vacuum) {
            g->count = low;
            return STEP_VACUUM;
        }
    }
    g->count = 0;
    for (i = 0; i <= N; i++) {
        if (nn[i] < g->floor) {
            nn[i] = g->floor;
            g->count++;
        }
    }

    for (i = 0; i < N; i++)
        g->terms[i] = (nn[i + 1] + nn[i]) * dx / 2.0;  /* dx * (n[1:] + n[:-1]) / 2.0 */
    return STEP_OK;
}
