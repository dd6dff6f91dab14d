/*
 * The native kernels of idsa-lab, built by _native.py into one module:
 *
 * - march(): the switched two-component scheme's steps (idsa.py);
 * - gtsv_factor() and gtsv_solve(): the domain-split schemes' tridiagonal
 *   solve (reformed.py), LAPACK's dgtsv split into a factor pass and a
 *   right-hand-side pass;
 * - format_rows(): the CSV rows of a block (cli.py), with "%.17g" floats,
 *   written with exact integer arithmetic for +-0 and 1e-38 < |x| < 1e17
 *   and by glibc's snprintf otherwise.
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
 * evaluates, per row, exactly the numpy expressions of idsa._Kernel in the
 * same order, in four passes over the cells:
 *
 *   1. the face fluxes;
 *   2. the min-max source (and its regime tag), the backward-Euler trapped
 *      update and the streaming terms: d S, times a / P on the rows below
 *      n_scan (the cumulative-product scan);
 *   3. the serial prefix, the flux r^2 g Js: P times the running sum of the
 *      terms on a scan row, phi = (phi + d S) a on the others (the
 *      sequential sweep);
 *   4. the streaming field, flux / r2g, and the negativity checks.
 *
 * The passes write to the scratch rows of march_rows; the new fields then
 * replace the old ones, and the reductions and the domination test read
 * them.  Every loop but the prefix, the relative change and the max of
 * Jt + Js (taken only at a step where a sum passes the running sup) carries
 * no dependence from one cell to the next, and vectorizes.  Built without
 * fast-math and without contraction into fused multiply-adds, every
 * operation rounds as numpy's does, so the fields are bit-identical to the
 * numpy path.
 *
 * Given `red`, each step also reduces per row what the observers in
 * idsa.py would reduce with numpy (march_reductions).  The kernel returns
 * after completing a step at which
 *
 *   - a trapped value fell below its row's floor or a streaming value below
 *     zero: *negative is set, and the caller names the row and cell;
 *   - a watched row's domination of the cells i >= watch (Jt > (Jt + Js) / 2
 *     on every one of them) began or ended; `dom` holds each row's flag;
 *   - a row's running sup of Jt + Js exceeded red->bound;
 *   - a row's relative change fell below red->stat_tol;
 *
 * or after `steps` steps.  The first non-monotone step is recorded, not
 * returned at.
 */

typedef struct {
    int n_rows, n_cells, n_scan;
    double dt;
    /* (n_rows, n_cells) arrays, row-major */
    const double *ka, *kaB, *den, *r2dr, *a, *P, *d, *r2g, *floor;
    /* (n_rows, n_cells - 1) arrays, one value per interior face */
    const double *kf3, *rf2;
    /* scratch rows: n_cells + 1 face fluxes, n_cells trapped values, n_cells
     * streaming terms and n_cells tags (when the caller asks for none) */
    double *flux, *trapped, *terms;
    signed char *tags;
} march_rows;

/*
 * The observers' reductions.  A max over cells is numpy's (NaN if any value
 * is), a max of two scalars Python's (the first unless the second is
 * greater); max and compare are exact, so the values are the observers'.
 */
typedef struct {
    double bound;             /* stop once a row's sup exceeds it */
    double stat_tol;          /* stop once a row's change falls below it; 0: no change */
    double mono_tol;          /* a pair is non-monotone where Jt[i + 1] - Jt[i] > mono_tol */
    int mono_pairs;           /* the pairs i < mono_pairs are checked */
    long long step;           /* the steps taken before the call */
    /* per row */
    double *sup;              /* max(sup, max(Jt + Js)) */
    double *change;           /* max(max|dJt|, max|dJs|) / max(max(0, Jt), max(0, Js), 1e-300) */
    signed char *nonmono;     /* the last step had a non-monotone pair */
    long long *first_nonmono; /* the first step that had one, or -1 */
} march_reductions;

/* numpy's maximum(a, b): a NaN operand propagates, and of two equal
 * operands (+0 and -0) b is returned. */
static double np_max(double a, double b) { return (a != a || a > b) ? a : b; }

/* numpy's maximum(a, b) and minimum(a, b) where b is not NaN (a constant,
 * or kaB), as one compare and one select, so that the passes vectorize. */
static double max_b(double a, double b) { return !(a <= b) ? a : b; }
static double min_b(double a, double b) { return !(a >= b) ? a : b; }

/* Python's max(a, b). */
static double py_max(double a, double b) { return b > a ? b : a; }

/* The flags below are doubles, 0.0 or 1.0, set by a select: a flag of the
 * width of the values keeps its loop vectorizable. */

/* Pass 1: the n + 1 face fluxes, zero at r = 0 and at r_max. */
static void face_fluxes(int n, const double *restrict jt, const double *restrict rf2,
                        const double *restrict kf3, double *restrict F)
{
    F[0] = F[n] = 0.0;
    for (int i = 0; i < n - 1; i++)
        F[i + 1] = rf2[i] * (jt[i + 1] - jt[i]) / kf3[i];
}

/* Pass 2: the source, its regime tags, the new trapped values and the
 * streaming terms d S. */
static void sources(int n, double dt, const double *restrict jt, const double *restrict js,
                    const double *restrict F, const double *restrict ka,
                    const double *restrict kaB, const double *restrict den,
                    const double *restrict r2dr, const double *restrict d,
                    double *restrict jt_new, double *restrict terms, signed char *restrict tag)
{
    for (int i = 0; i < n; i++) {
        const double inner = ka[i] * js[i] - (F[i + 1] - F[i]) / r2dr[i];
        const double S = min_b(max_b(inner, 0.0), kaB[i]);
        jt_new[i] = (jt[i] + dt * (kaB[i] - S)) / den[i];
        terms[i] = d[i] * S;
        tag[i] = inner <= 0.0 ? 0 : inner >= kaB[i] ? 2 : 1;
    }
}

/* Pass 2 of a scan row: the terms d S a / P. */
static void scan_terms(int n, const double *restrict a, const double *restrict P,
                       double *restrict terms)
{
    for (int i = 0; i < n; i++)
        terms[i] = terms[i] * a[i] / P[i];
}

/* Pass 3, in place: the flux r^2 g Js, as P times the scan's running sum or
 * as the sweep's running phi = (phi + d S) a. */
static void prefix(int n, int scan, const double *restrict a, const double *restrict P,
                   double *restrict acc)
{
    if (scan) {
        double sum = acc[0];
        acc[0] = P[0] * sum;
        for (int i = 1; i < n; i++) {
            sum = sum + acc[i];
            acc[i] = P[i] * sum;
        }
    } else {
        double phi = 0.0;
        for (int i = 0; i < n; i++)
            acc[i] = phi = (phi + acc[i]) * a[i];
    }
}

/* Pass 4, in place: the new streaming values; returns 1.0 if a value fell
 * below its floor. */
static double streaming(int n, const double *restrict jt_new, const double *restrict floor,
                        const double *restrict r2g, double *restrict flux)
{
    double bad = 0.0;
    for (int i = 0; i < n; i++) {
        const double js_new = flux[i] / r2g[i];
        bad = jt_new[i] < floor[i] ? 1.0 : bad;
        bad = js_new < 0.0 ? 1.0 : bad;
        flux[i] = js_new;
    }
    return bad;
}

/* max(max|dJt|, max|dJs|) / max(max(0, Jt), max(0, Js), 1e-300) from
 * (jt, js) to (jt_new, js_new), the maxima over cells numpy's. */
static double relative_change(int n, const double *jt, const double *js,
                              const double *jt_new, const double *js_new)
{
    double djt = 0.0, djs = 0.0, mjt = 0.0, mjs = 0.0;
    for (int i = 0; i < n; i++) {
        djt = np_max(djt, fabs(jt_new[i] - jt[i]));
        djs = np_max(djs, fabs(js_new[i] - js[i]));
        mjt = np_max(mjt, jt_new[i]);
        mjs = np_max(mjs, js_new[i]);
    }
    return py_max(djt, djs) / py_max(py_max(mjt, mjs), 1e-300);
}

/* max(sup, max(Jt + Js)), the max over cells numpy's: a NaN sum leaves sup
 * as it is.  Only when a sum exceeds sup is the max taken. */
static double running_sup(int n, double sup, const double *restrict jt,
                          const double *restrict js)
{
    double above = 0.0, nan = 0.0;
    for (int i = 0; i < n; i++) {
        const double t = jt[i] + js[i];
        above = t > sup ? 1.0 : above;
        nan = t != t ? 1.0 : nan;
    }
    if (above == 0.0 || nan != 0.0)
        return sup;
    for (int i = 0; i < n; i++)
        sup = py_max(sup, jt[i] + js[i]);
    return sup;
}

/* Whether Jt[i + 1] - Jt[i] > tol for some i < pairs. */
static int nonmonotone(int pairs, double tol, const double *restrict jt)
{
    double any = 0.0;
    for (int i = 0; i < pairs; i++)
        any = jt[i + 1] - jt[i] > tol ? 1.0 : any;
    return any != 0.0;
}

/* Whether Jt > (Jt + Js) / 2 on every cell from i0 on. */
static int dominated(int n, int i0, const double *restrict jt, const double *restrict js)
{
    double not_all = 0.0;
    for (int i = i0; i < n; i++)
        not_all = !(jt[i] > 0.5 * max_b(jt[i] + js[i], 1e-300)) ? 1.0 : not_all;
    return not_all == 0.0;
}

long march(const march_rows *m, march_reductions *red, const double *Jt0, const double *Js0,
           double *Jt, double *Js, signed char *tags, signed char *dom,
           long steps, int watch, int *negative)
{
    const int n = m->n_cells;
    const size_t row = n * sizeof(double);
    /* js_new holds the streaming terms, then the flux, then the new values */
    double *F = m->flux, *jt_new = m->trapped, *js_new = m->terms;

    /* Every step works in place on the output. */
    memcpy(Jt, Jt0, m->n_rows * row);
    memcpy(Js, Js0, m->n_rows * row);
    *negative = 0;
    long s = 0;
    while (s < steps) {
        int bad = 0, stop = 0;
        for (int r = 0; r < m->n_rows; r++) {
            const long o = (long)r * n, of = (long)r * (n - 1);
            const int scan = r < m->n_scan;
            double *jt = Jt + o, *js = Js + o;

            face_fluxes(n, jt, m->rf2 + of, m->kf3 + of, F);
            sources(n, m->dt, jt, js, F, m->ka + o, m->kaB + o, m->den + o, m->r2dr + o,
                    m->d + o, jt_new, js_new, tags ? tags + o : m->tags);
            if (scan)
                scan_terms(n, m->a + o, m->P + o, js_new);
            prefix(n, scan, m->a + o, m->P + o, js_new);
            bad |= streaming(n, jt_new, m->floor + o, m->r2g + o, js_new) != 0.0;
            if (red && red->stat_tol > 0.0) {
                red->change[r] = relative_change(n, jt, js, jt_new, js_new);
                stop |= red->change[r] < red->stat_tol;
            }
            memcpy(jt, jt_new, row);
            memcpy(js, js_new, row);
            if (red) {
                const int nm = nonmonotone(red->mono_pairs, red->mono_tol, jt);
                red->sup[r] = running_sup(n, red->sup[r], jt, js);
                red->nonmono[r] = (signed char)nm;
                if (nm && red->first_nonmono[r] < 0)
                    red->first_nonmono[r] = red->step + s + 1;
                stop |= red->sup[r] > red->bound;
            }
            if (watch >= 0) {
                const int d = dominated(n, watch, jt, js);
                stop |= d != dom[r];
                dom[r] = (signed char)d;
            }
        }
        s++;
        if (bad || stop) {
            *negative = bad;
            break;
        }
    }
    return s;
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
 *
 * format_double writes NaN, +-0 and every 1e-38 < |x| < 1e17 itself, with
 * exact integer arithmetic; glibc's snprintf, which is exact too, writes
 * the rest: subnormals, 0 < |x| <= 1e-38, |x| >= 1e17 and the infinities.
 */
typedef struct {
    char kind;                  /* 'f' double, 'b' bool (one byte), 't' text */
    const void *data;
    const long long *ends;      /* 't': end of each row's text in data; NULL: the same text every row */
    long long len;              /* 't' without ends: the text's length */
} csv_column;

typedef unsigned __int128 u128;
typedef unsigned long long u64;

static const u64 P10_16 = 10000000000000000ULL, P10_17 = 100000000000000000ULL;

/* 5^0 .. 5^27, the powers of five below 2^63. */
static const u64 P5[28] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL, 1953125ULL,
    9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL, 6103515625ULL, 30517578125ULL,
    152587890625ULL, 762939453125ULL, 3814697265625ULL, 19073486328125ULL,
    95367431640625ULL, 476837158203125ULL, 2384185791015625ULL, 11920928955078125ULL,
    59604644775390625ULL, 298023223876953125ULL, 1490116119384765625ULL,
    7450580596923828125ULL,
};

/* "00" .. "99" */
static const char DIGIT_PAIRS[200] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/*
 * floor(M 2^e2 10^p), for 0 <= p <= 54, given that it is below 10^18; *up
 * is 1 where the rest rounds it up, half to even.  M 2^e2 10^p is
 * M 5^p 2^(p + e2), and M 5^p < 2^53 5^54 < 2^179 is held as t 2^64 + l,
 * exactly; a right shift by s keeps bit s - 1 and whether any bit below
 * it is set.
 */
static u64 scaled(u64 M, int e2, int p, int *up)
{
    const u128 f = p <= 27 ? P5[p] : (u128)P5[27] * P5[p - 27];  /* 5^p */
    const u128 lo = (u128)M * (u64)f;
    const u128 t = (u128)M * (u64)(f >> 64) + (lo >> 64);
    const u64 l = (u64)lo;
    int s = -(p + e2), sticky = 0;
    u128 v;
    if (s >= 64) {  /* of the 63 low bits of l, only whether one is set matters */
        v = t << 1 | l >> 63;
        sticky = (l << 1) != 0;
        s -= 63;
    } else {        /* the product is below 2^(60 + s): it fits */
        v = t << 64 | l;
    }
    if (s <= 0) {
        *up = 0;
        return (u64)(v << -s);
    }
    const u64 q = (u64)(v >> s);
    const u128 rem = v & (((u128)1 << s) - 1), half = (u128)1 << (s - 1);
    *up = rem > half || (rem == half && (sticky || (q & 1)));
    return q;
}

/* v < 10^8 as the eight digits at d, two at a time. */
static void eight_digits(unsigned v, char *d)
{
    for (int k = 6; k >= 0; k -= 2) {
        memcpy(d + k, DIGIT_PAIRS + 2 * (v % 100), 2);
        v /= 100;
    }
}

/* x as "%.17g", returning the length (at most 24). */
static int format_double(double x, char *out)
{
    const double ax = fabs(x);
    u64 bits;
    memcpy(&bits, &x, sizeof bits);

    if (x != x) {  /* glibc writes "-nan" for a negative NaN; Python writes "nan" */
        memcpy(out, "nan", 3);
        return 3;
    }
    /* 1e-38 as a double is below 10^-38, so the strict bound keeps the
     * decimal exponent at -38 or above. */
    if (ax != 0.0 && !(ax > 1e-38 && ax < 1e17))
        return snprintf(out, 25, "%.17g", x);
    char *o = out;
    if (bits >> 63)
        *o++ = '-';
    if (ax == 0.0) {
        *o++ = '0';
        return (int)(o - out);
    }

    /* ax = M 2^e2 with 2^52 <= M < 2^53.  The 17 digits are
     * q = round(ax 10^p), p = 16 - E with E = floor(log10 ax) in [-38, 16].
     * E is floor((e2 + 52) log10 2) or one more: (k 78913) >> 18 is
     * floor(k log10 2) for |k| <= 1650 (gcc shifts a negative int
     * arithmetically), so p starts at its value or one above it, but not
     * above 54, the largest power scaled() takes. */
    const int e2 = (int)(bits >> 52 & 0x7ff) - 1075;
    const u64 M = (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
    int p = 16 - (((e2 + 52) * 78913) >> 18), up;
    p = p > 54 ? 54 : p;
    u64 q;
    for (;;) {
        q = scaled(M, e2, p, &up);
        if (q < P10_16)
            p++;
        else if (q >= P10_17)
            p--;
        else
            break;
    }
    q += up;
    int E = 16 - p;
    if (q == P10_17) {  /* 1e-14 as a double is below 10^-14 and rounds up to it */
        q = P10_16;
        E++;
    }

    char dig[17];
    const u64 top = q / 100000000;  /* the first nine digits */
    eight_digits((unsigned)(q % 100000000), dig + 9);
    eight_digits((unsigned)(top % 100000000), dig + 1);
    dig[0] = (char)('0' + top / 100000000);
    int nd = 17;
    while (nd > 1 && dig[nd - 1] == '0')
        nd--;

    if (E < -4) {
        *o++ = dig[0];
        if (nd > 1) {
            *o++ = '.';
            memcpy(o, dig + 1, nd - 1);
            o += nd - 1;
        }
        *o++ = 'e';
        *o++ = '-';
        memcpy(o, DIGIT_PAIRS + 2 * -E, 2);
        o += 2;
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
