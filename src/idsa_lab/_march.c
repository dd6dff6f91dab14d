/*
 * The native kernels of idsa-lab, built by _native.py into one module:
 *
 * - march(): the switched two-component scheme's steps (idsa.py);
 * - gtsv_factor() and gtsv_solve(): the domain-split schemes' tridiagonal
 *   solve (reformed.py), LAPACK's dgtsv split into a factor pass and a
 *   right-hand-side pass;
 * - format_rows(): the CSV rows of a block (cli.py), with "%.17g" floats.
 *
 * Each gives the bits of its Python reference: built without fast-math and
 * without contraction into fused multiply-adds, every operation rounds as
 * numpy's and Python's do.
 */

#include <math.h>
#include <stdio.h>
#include <string.h>

/*
 * March kernel for the switched two-component scheme (idsa.py).
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

/*
 * Tridiagonal solve, split from LAPACK's dgtsv (what scipy's
 * solve_banded((1, 1), ...) calls) into a factor pass over the matrix and a
 * pass over each right-hand side.  Both keep dgtsv's operations in dgtsv's
 * order, including its row interchange where |d_i| < |dl_i|, so a solve
 * gives dgtsv's bits.
 *
 * gtsv_factor overwrites dl (n - 1), d (n) and du (n - 1) with the factors
 * (dl[0 .. n - 3] becomes the second superdiagonal, zero on rows that were
 * not interchanged) and records each elimination's multiplier in fact and
 * whether it interchanged rows in swap (n - 1 each).  It returns 0, or
 * dgtsv's INFO: the 1-based row of a zero pivot.
 */
int gtsv_factor(int n, double *dl, double *d, double *du, double *fact, signed char *swap)
{
    for (int i = 0; i < n - 1; i++) {
        if (fabs(d[i]) >= fabs(dl[i])) {
            if (d[i] == 0.0)
                return i + 1;
            fact[i] = dl[i] / d[i];
            swap[i] = 0;
            d[i + 1] = d[i + 1] - fact[i] * du[i];
            if (i < n - 2)
                dl[i] = 0.0;
        } else {
            const double f = d[i] / dl[i], temp = d[i + 1];
            fact[i] = f;
            swap[i] = 1;
            d[i] = dl[i];
            d[i + 1] = du[i] - f * temp;
            if (i < n - 2) {
                dl[i] = du[i + 1];
                du[i + 1] = -f * dl[i];
            }
            du[i] = temp;
        }
    }
    return d[n - 1] == 0.0 ? n : 0;
}

/* Solves in place for b (n), given gtsv_factor's output. */
void gtsv_solve(int n, const double *dl, const double *d, const double *du,
                const double *fact, const signed char *swap, double *b)
{
    for (int i = 0; i < n - 1; i++) {
        if (!swap[i]) {
            b[i + 1] = b[i + 1] - fact[i] * b[i];
        } else {
            const double temp = b[i];
            b[i] = b[i + 1];
            b[i + 1] = temp - fact[i] * b[i + 1];
        }
    }
    b[n - 1] = b[n - 1] / d[n - 1];
    if (n > 1)
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2];
    for (int i = n - 3; i >= 0; i--)
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i];
}

/*
 * CSV rows: format_rows writes n_rows rows of n_cols cells, separated by
 * commas and ended by newlines, into out, and returns the bytes written.
 * A float cell is written as "%.17g" (what Python's format(x, ".17g")
 * writes: every NaN is "nan"), a bool as 0 or 1 and a text cell verbatim.
 * out must hold the widest case: 24 bytes per float cell, 1 per bool, the
 * text, and n_cols separators per row.
 */
typedef struct {
    char kind;                  /* 'f' double, 'b' bool (one byte), 't' text */
    const void *data;
    const long long *ends;      /* 't': end of each row's text in data; NULL: the same text every row */
    long long len;              /* 't' without ends: the text's length */
} csv_column;

typedef unsigned __int128 u128;

static const unsigned long long P10[20] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
    100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL, 1000000000000ULL,
    10000000000000ULL, 100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL,
    100000000000000000ULL, 1000000000000000000ULL, 10000000000000000000ULL,
};

static u128 pow10_u128(int p) { return p < 20 ? P10[p] : (u128)P10[19] * P10[p - 19]; }

/* x as "%.17g", returning the length (at most 24). */
static int format_double(double x, char *out)
{
    const double ax = fabs(x);

    if (x != x) {  /* glibc writes "-nan" for a negative NaN; Python writes "nan" */
        memcpy(out, "nan", 3);
        return 3;
    }
    /* Outside (1e-6, 1e17) (subnormals, zeros, infinities and wide
     * exponents) glibc is exact; 1e-6 as a double is below 10^-6, so a
     * strict bound keeps the decimal exponent at -6 or above. */
    if (!(ax > 1e-6 && ax < 1e17))
        return snprintf(out, 25, "%.17g", x);

    /* ax = M 2^e2 with M < 2^53.  The 17 digits are q = round(ax 10^p) with
     * p = 16 - E, E = floor(log10 ax) in [-6, 16], so p is in [0, 22] and
     * M 10^p < 2^127: the product is exact in 128 bits, and q is rounded
     * half to even, as glibc and Python round. */
    unsigned long long bits;
    memcpy(&bits, &ax, sizeof bits);
    const int e2 = (int)(bits >> 52) - 1075;
    const unsigned long long M = (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
    int p = 16 - (int)floor((e2 + 52) * 0.30102999566398120);  /* within one of 16 - E */
    p = p < 0 ? 0 : p > 22 ? 22 : p;
    u128 N, q;
    for (;;) {
        N = (u128)M * pow10_u128(p);
        q = e2 >= 0 ? N << e2 : N >> -e2;   /* floor(ax 10^p) */
        if (q < P10[16])
            p++;
        else if (q >= P10[17])
            p--;
        else
            break;
    }
    if (e2 < 0) {
        const u128 rem = N & (((u128)1 << -e2) - 1), half = (u128)1 << (-e2 - 1);
        q += rem > half || (rem == half && (q & 1));
    }
    /* q cannot round up to 10^17: the largest double below each power of
     * ten from 10^-6 to 10^17 is more than half a unit in the 17th digit
     * below it. */
    const int E = 16 - p;

    char dig[17];
    unsigned long long v = (unsigned long long)q;
    for (int k = 16; k >= 0; k--) {
        dig[k] = (char)('0' + v % 10);
        v /= 10;
    }
    int nd = 17;
    while (nd > 1 && dig[nd - 1] == '0')
        nd--;

    char *o = out;
    if (x < 0)
        *o++ = '-';
    if (E < -4 || E >= 17) {
        *o++ = dig[0];
        if (nd > 1) {
            *o++ = '.';
            memcpy(o, dig + 1, nd - 1);
            o += nd - 1;
        }
        const int ex = E < 0 ? -E : E;
        *o++ = 'e';
        *o++ = E < 0 ? '-' : '+';
        *o++ = (char)('0' + ex / 10);
        *o++ = (char)('0' + ex % 10);
    } else if (E >= 0) {
        memcpy(o, dig, E + 1);
        o += E + 1;
        if (nd > E + 1) {
            *o++ = '.';
            memcpy(o, dig + E + 1, nd - E - 1);
            o += nd - E - 1;
        }
    } else {
        *o++ = '0';
        *o++ = '.';
        for (int k = 0; k < -E - 1; k++)
            *o++ = '0';
        memcpy(o, dig, nd);
        o += nd;
    }
    return (int)(o - out);
}

long long format_rows(long long n_rows, int n_cols, const csv_column *cols, char *out)
{
    char *o = out;
    for (long long r = 0; r < n_rows; r++) {
        for (int c = 0; c < n_cols; c++) {
            const csv_column *col = cols + c;
            if (c)
                *o++ = ',';
            switch (col->kind) {
            case 'f':
                o += format_double(((const double *)col->data)[r], o);
                break;
            case 'b':
                *o++ = ((const unsigned char *)col->data)[r] ? '1' : '0';
                break;
            default: {
                const long long start = col->ends ? (r ? col->ends[r - 1] : 0) : 0;
                const long long end = col->ends ? col->ends[r] : col->len;
                memcpy(o, (const char *)col->data + start, end - start);
                o += end - start;
            }
            }
        }
        *o++ = '\n';
    }
    return o - out;
}
