/*
 * Native march kernel for the switched two-component scheme (idsa.py).
 *
 * march() advances every row of a batch by up to `steps` steps.  Each step
 * evaluates, per row and in one outward pass over the cells, exactly the
 * numpy expressions of idsa._Kernel in the same order: the face fluxes, the
 * min-max source (and its regime tag), the backward-Euler trapped update and
 * the streaming re-solve.  Rows below n_scan use the cumulative-product scan
 * (acc += d S a / P, Phi = P acc), the others the sequential sweep
 * (phi = (phi + d S) a).  Built without fast-math and without contraction
 * into fused multiply-adds, every operation rounds as numpy's does, so the
 * fields are bit-identical to the numpy path.
 *
 * The pass is in place from the second step on: cell i reads the old Jt of
 * cells i and i + 1 and the old Js of cell i before it overwrites cell i.
 *
 * The kernel returns early, after completing the step, when a trapped value
 * falls below its row's floor or a streaming value below zero (*negative is
 * set; the caller names the row and cell), or when a watched row's
 * domination of the cells i >= watch (Jt > (Jt + Js) / 2 on every one of
 * them) begins or ends; `dom` holds each row's domination flag.
 */

typedef struct {
    int n_rows, n_cells, n_scan;
    double dt;
    /* (n_rows, n_cells) arrays, row-major */
    const double *ka, *kaB, *den, *r2dr, *a, *P, *d, *r2g, *floor;
    /* (n_rows, n_cells - 1) arrays, one value per interior face */
    const double *kf3, *rf2;
} march_rows;

/* numpy's maximum and minimum: a NaN operand propagates, and of two equal
 * operands (+0 and -0) the second is returned. */
static double np_max(double a, double b) { return (a != a || a > b) ? a : b; }
static double np_min(double a, double b) { return (a != a || a < b) ? a : b; }

long march(const march_rows *m, const double *Jt0, const double *Js0,
           double *Jt, double *Js, signed char *tags, signed char *dom,
           long steps, int watch, int *negative)
{
    const int n = m->n_cells;
    const double dt = m->dt;

    *negative = 0;
    for (long s = 0; s < steps; s++) {
        int bad = 0, changed = 0;
        for (int r = 0; r < m->n_rows; r++) {
            const long o = (long)r * n, of = (long)r * (n - 1);
            const double *jt = (s ? Jt : Jt0) + o, *js = (s ? Js : Js0) + o;
            double *jt_out = Jt + o, *js_out = Js + o;
            const double *ka = m->ka + o, *kaB = m->kaB + o, *den = m->den + o;
            const double *r2dr = m->r2dr + o, *a = m->a + o, *P = m->P + o;
            const double *d = m->d + o, *r2g = m->r2g + o, *floor = m->floor + o;
            const double *kf3 = m->kf3 + of, *rf2 = m->rf2 + of;
            signed char *tag = tags ? tags + o : 0;
            const int scan = r < m->n_scan;
            double F_in = 0.0, acc = 0.0;  /* acc: the scan's sum, or the sweep's flux */
            int dominated = 1;

            for (int i = 0; i < n; i++) {
                const double F_out = i + 1 < n ? rf2[i] * (jt[i + 1] - jt[i]) / kf3[i] : 0.0;
                const double inner = ka[i] * js[i] - (F_out - F_in) / r2dr[i];
                const double S = np_min(np_max(inner, 0.0), kaB[i]);
                const double jt_new = (jt[i] + dt * (kaB[i] - S)) / den[i];
                double js_new;

                if (scan) {
                    const double x = d[i] * S * a[i] / P[i];
                    acc = i ? acc + x : x;
                    js_new = P[i] * acc / r2g[i];
                } else {
                    acc = (acc + d[i] * S) * a[i];
                    js_new = acc / r2g[i];
                }
                if (tag)
                    tag[i] = inner <= 0.0 ? 0 : inner >= kaB[i] ? 2 : 1;
                bad |= (jt_new < floor[i]) | (js_new < 0.0);
                if (watch >= 0 && i >= watch)
                    dominated &= jt_new > 0.5 * np_max(jt_new + js_new, 1e-300);
                jt_out[i] = jt_new;
                js_out[i] = js_new;
                F_in = F_out;
            }
            if (watch >= 0 && dominated != dom[r]) {
                dom[r] = (signed char)dominated;
                changed = 1;
            }
        }
        if (bad) {
            *negative = 1;
            return s + 1;
        }
        if (changed)
            return s + 1;
    }
    return steps;
}
