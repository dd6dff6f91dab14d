/*
 * The native kernels of idsa-lab, built by _native.py into one module:
 *
 * - march(): the switched two-component scheme's steps (idsa.py), each row
 *   in blocks of 128 cells, each step into the other of two pairs of fields,
 *   multiplying by the reciprocals of its divisors that idsa._Kernel rounds
 *   once per march; a row of at least MARCH_SPLIT_MIN_CELLS cells on two
 *   POSIX threads, its head on the calling one and its tail on a helper
 *   started and joined within each call, one step apart, with the same bits
 *   on any number of threads;
 * - gtsv_factor() and gtsv_solve(): the domain-split schemes' tridiagonal
 *   solve (reformed.py), LAPACK's dgtsv split into a factor pass and a
 *   right-hand-side pass;
 * - reformed_march(): the domain-split schemes' march (reformed.py), from
 *   one stop of the schedule to the next in one call, each step one
 *   right-hand-side pass with the step's right-hand side, checks and
 *   relative change fused into it, each into the other of two fields,
 *   multiplying by the reciprocals of the pivots that reformed.py rounds
 *   once per scheme where gtsv_solve() divides by them, so a direct solve
 *   keeps dgtsv's bits and a march step does not;
 * - format_rows(): the CSV rows of a block (cli.py), with "%.17g" floats,
 *   written with exact integer arithmetic for +-0 and 1e-38 < |x| < 1e17
 *   and by glibc's snprintf otherwise, a large block's row ranges on a few
 *   POSIX threads started and joined within each call;
 * - oracle_integrate(): the exact sphere's adaptive quadrature (sphere.py
 *   and quadrature.py), whole, with an exp of its own (fixed_exp(), also
 *   as oracle_exp()) fused into its pass over the nodes, its independent
 *   blocks on a few POSIX threads started and joined within each call
 *   (built with -pthread), merged in block order so that the bits do not
 *   depend on how many ran.  A call allocates once: per worker, room for
 *   max(3 block, 2 max_live) panels evaluated and max(block, max_live)
 *   queued, block and max_live being quadrature's _BLOCK and _MAX_LIVE_PANELS,
 *   1.42 MB at their defaults.  A level evaluates its panels in its queue.
 *
 * Each gives the bits of its Python reference: built without fast-math and
 * without contraction into fused multiply-adds, every operation rounds as
 * numpy's and Python's do.
 *
 * With gcc 12 or later on x86-64 and glibc, march(), its range of cells
 * (step_range()) and the oracle's pass over its panels (panel_estimates())
 * are compiled three times from this one source
 * (MARCH_CLONES), for x86-64-v4 (AVX-512), x86-64-v3 (AVX2) and the x86-64
 * baseline (SSE2), and the loader's ifunc resolver runs the widest clone
 * the CPU supports; march_isa() names it.  The pass helpers are inlined
 * into each clone, so each compiles its loops at its own width.  A vector
 * add, multiply, divide, square root or compare rounds each element as the
 * scalar one does, so every clone gives the same bits.  Elsewhere (another
 * compiler or target, or no glibc) each is one plain function.
 */

#include <float.h>
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

/* === cffi interface === */
/*
 * The structs Python fills, the oracle's outcomes and the kernels Python
 * calls, declared once: _native.py hands this block, up to the end marker,
 * to cffi's cdef, and the module is compiled against it.  So it is written
 * in the C that cdef parses: no preprocessor line, restrict, attribute or
 * static.  The kernels' definitions below add their restrict and clones.
 */

/* march(): the rows of a batch (idsa.py). */
typedef struct {
    int n_rows, n_cells, n_scan;
    double dt;
    /* (n_rows, n_cells) arrays, row-major; inv_x is 1 / x, and aP is a / P
     * (0 on the rows from n_scan on) */
    const double *ka, *kaB, *inv_den, *inv_r2dr, *a, *P, *aP, *d, *inv_r2g, *floor;
    /* (n_rows, n_cells - 1) arrays, one value per interior face */
    const double *inv_kf3, *rf2;
    /* scratch: the spare pair of (n_rows, n_cells) fields and the spare tags,
     * which every other step writes */
    double *Jt_spare, *Js_spare;
    signed char *tags_spare;
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
    /* per row */
    double *sup;              /* max(sup, max(Jt + Js)) */
    double *change;           /* max(max|dJt|, max|dJs|) / max(max(0, Jt), max(0, Js), 2^-1074) */
    signed char *nonmono;     /* the last step had a non-monotone pair */
    long long *first_nonmono; /* the first step that had one, or -1 */
} march_reductions;

/*
 * The spurious sweep's takeover holds (idsa._Holds).  The hold's end is
 * computed as numpy computes it: the times are the step counts times dt,
 * and the max is of two values that are not NaN.
 */
typedef struct {
    int watch;                /* the cells i >= watch are watched */
    double confirm, min_hold; /* a hold from t ends at max(confirm t, t + min_hold) */
    long long *since;         /* per row: the step its domination began, or -1 */
} march_holds;

/* A row of at least this many cells is stepped on two threads. */
enum { MARCH_SPLIT_MIN_CELLS = 2048 };

long march(const march_rows *m, march_reductions *red, march_holds *hold, const double *Jt0,
           const double *Js0, double *Jt, double *Js, signed char *tags, long long k0,
           long steps, int workers, int *negative, int *used);
const char *march_isa(void);

/* oracle_integrate(): the oracle's integrand (sphere.py). */
typedef struct {
    int inside;                  /* 1: the inside integrand, 0: the outside one */
    const double *node, *weight; /* the Gauss-Legendre nodes and weights on [-1, 1] */
    /* per owner: inside, the radius r; outside, the rate and mu0^2 */
    const double *r, *rate, *mu0_sq;
    double R, kappa;             /* inside */
} oracle_integrand;

/*
 * The outcome of oracle_integrate: kind is ORACLE_OK, or why it stopped,
 * with what QuadratureError's message names; and the counts of the work
 * done, over the blocks up to the first that failed.  Each block has one
 * of its own, and oracle_integrate merges them into the call's.
 */
enum { ORACLE_OK, ORACLE_NON_FINITE, ORACLE_TOO_DEEP, ORACLE_TOO_MANY, ORACLE_NO_MEMORY };

typedef struct {
    int kind;
    long long owner;    /* the owner named, an index into the batch */
    double value;       /* NON_FINITE: the estimate; TOO_DEEP: the worst panel error */
    long long live;     /* TOO_MANY: the live panels the next level would hold, */
    long long held;     /* the owner's share of them, */
    int depth;          /* and that level */
    long long panels;   /* panel estimates computed */
    int max_depth;      /* the deepest level of bisection reached */
    long long max_live; /* the most panels a block held past level 0 */
    int workers;        /* the threads that integrated the blocks */
} oracle_status;

void oracle_integrate(const oracle_integrand *g, long long n, const double *lo, const double *hi,
                      double tol, int block, int max_depth, long long max_live, int workers,
                      double *out, oracle_status *status);
void oracle_exp(long long n, const double *x, double *out);

/* gtsv_factor() and gtsv_solve(): the tridiagonal solve (reformed.py). */
int gtsv_factor(int n, double *dl, double *d, double *du, double *fact, signed char *swap);
void gtsv_solve(int n, const double *dl, const double *d, const double *du,
                const double *fact, const signed char *swap, double *b);

/* reformed_march(): the domain-split march (reformed.py). */
typedef struct {
    int m;                       /* the inside cells, m >= 2 */
    /* the step matrix I - dt L as gtsv_factor left it, and rd = 1 / d,
     * rounded once per scheme, which the back substitution multiplies by */
    const double *dl, *d, *du, *fact, *rd;
    const signed char *swap;
    double dtq;                  /* dt kappa B, which the right-hand side adds to each Jt */
    double floor;                /* -1e-12 B: a trapped value below it is negative */
    double dr;
    int normalize;               /* 0 ("old"): Js = scale dJt/dr; 1 ("new"): scale = edge / the face gradient */
    double scale, edge;
    double *spare;               /* scratch: m doubles, which every other step writes */
} reformed_step;

long reformed_march(const reformed_step *s, const double *Jt0, double *Jt, long steps,
                    double stat_tol, double *change, int *failed);

/* format_rows(): one column of a block of CSV rows (cli.py). */
typedef struct {
    char kind;                  /* 'f' double, 'b' bool (one byte), 't' text */
    const void *data;
    const long long *ends;      /* 't': end of each row's text in data; NULL: the same text every row */
    long long len;              /* 't' without ends: the text's length */
} csv_column;

/* A block is split only into ranges of at least this many rows. */
enum { FORMAT_MIN_ROWS = 4096 };

long long format_rows(long long n_rows, int n_cols, const csv_column *cols, int workers,
                      char *out, int *used);
/* === end of the cffi interface === */

/* Clones need gcc's ifunc, which needs glibc; gcc 12 knows the level names. */
#if defined(__GNUC__) && __GNUC__ >= 12 && !defined(__clang__) && defined(__x86_64__) && \
    defined(__GLIBC__)
#define MARCH_CLONES __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#define INLINE inline __attribute__((always_inline))
/* The resolver's choice: the first level of the clone list the CPU supports. */
#define MARCH_ISA()                                                  \
    (__builtin_cpu_supports("x86-64-v4")   ? "x86-64-v4"             \
     : __builtin_cpu_supports("x86-64-v3") ? "x86-64-v3" : "x86-64")
#else
#define MARCH_CLONES
#define INLINE inline
#define MARCH_ISA() "default"
#endif

/*
 * March kernel for the switched two-component scheme (idsa.py).
 *
 * march() advances every row of a batch by up to `steps` steps.  Each step
 * evaluates, per row, exactly the numpy expressions of idsa._Kernel in the
 * same order.  Those divide by nothing: each divisor of the scheme (1 + dt
 * ka, 3 kf dr, r^2 dr, r^2 g and, on a scan row, P) is constant over a
 * march, so _Kernel rounds its reciprocal once (a / P for P), and both
 * paths multiply by it: a vector divide has a fraction of a multiply's
 * throughput, and five divides per cell bounded the step at 10000 cells.
 * A row is stepped in blocks of MARCH_BLOCK cells, from r = 0 out, and a
 * block runs four passes over its cells before the next block begins:
 *
 *   1. the face fluxes, rf2 (Jt[i + 1] - Jt[i]) times 1 / kf3;
 *   2. the min-max source (and its regime tag, when the caller asks for the
 *      tags), from the flux difference times 1 / r2dr, the backward-Euler
 *      trapped update, times 1 / den, and the streaming terms: d S, times
 *      a / P on the rows below n_scan (the cumulative-product scan);
 *   3. the serial prefix, the flux r^2 g Js: P times the running sum of the
 *      terms on a scan row, phi = (phi + d S) a on the others (the
 *      sequential sweep);
 *   4. the streaming field, flux times 1 / r2g, the negativity checks and
 *      the flags of the running sup;
 *
 * then, on its new values, the maxima of the relative change.  The last
 * face flux, the prefix's running sum or phi and the maxima carry from one
 * block to the next, so each value is computed by the operations of a pass
 * over the whole row, in the same order (but the maxima, which do not
 * depend on it: change_maxima()):
 * blocking only interleaves passes that are independent cell by cell.  A
 * block's face fluxes and terms stay on the stack (2 kB), and so do the
 * values whose maxima it takes (4 kB), in L1 from one pass to the next,
 * where passes over whole rows stream through L2: a step of a row of 10000
 * cells reads 13 arrays of 80 kB.  step_range() steps the blocks of one
 * range of a row's cells, given the carry from the cells before it
 * (march_part), and reduces over the range what is a max, an any or an
 * all: the sup, the non-monotone pairs, the domination and the negativity
 * checks, each exact, so that ranges combine to the bits of the whole row.
 *
 * A step reads one pair of fields and writes the other: the first step
 * reads (Jt0, Js0) and writes (Jt, Js), and later steps alternate between
 * (Jt, Js) and march_rows' spare pair, the tags likewise between `tags`
 * and the spare tags.  If the last step wrote the spare pair, it is copied
 * to (Jt, Js) at the end.  So no step copies a field, and (Jt0, Js0) are
 * never written.
 *
 * A row of at least MARCH_SPLIT_MIN_CELLS cells is stepped on two threads
 * when the caller gives two workers and more than one step: it is split at
 * the block edge `split` nearest n / 2; the calling thread steps every
 * row's head [0, split) and one helper, started and joined within the
 * call, every row's tail [split, n).  Each waits on the other only where
 * the data flows (Wellein et al., "Efficient temporal blocking for stencil
 * computations by multicore-aware wavefront parallelization", COMPSAC
 * 2009): a tail waits for its head's carry, and the head of the next
 * step for the tail's first block, which holds the Jt[split] its last face
 * reads; so the tail of one step runs beside the head of the next.  The
 * head runs a step before the tail has said whether the march stops, so
 * nothing it writes may be seen: it writes the pair of fields and tags
 * that the step before read, whose values are dead, and its carry and
 * partial reductions into the row's slot of its step's parity.  It flags
 * the sup against the latest one the tail has published, which is never
 * above the true one since a sup does not decrease, and the tail takes
 * the max against the true one.  The tail alone combines the two ranges in
 * step order, writes the reductions, the holds and the negativity flag,
 * and decides whether to stop.  The handoffs are C11 atomics, waited on by
 * a spin loop that yields after MARCH_SPINS pauses.  Every cell is
 * computed by the same operations in the same order, so the bits do not
 * depend on how many threads ran; a helper that cannot be started leaves
 * the march on the calling thread, as a short row, one step or one worker
 * does.
 *
 * Every loop but the prefix, the relative change's running max (taken only
 * in a block with a NaN) and the max of Jt + Js (taken only at a step where
 * a sum passes the running sup) carries no dependence from one cell to the
 * next, and vectorizes.  Each loop indexes its block through pointers
 * offset to the block's first cell: the module is built with -fwrapv
 * (_native.py), under which gcc vectorizes a loop indexed by a sum of ints
 * poorly.  Built without fast-math and without contraction into fused
 * multiply-adds, every operation rounds as numpy's does, so the fields are
 * bit-identical to the numpy path.
 *
 * Given `red`, each step also reduces per row what the observers in
 * idsa.py would reduce with numpy (march_reductions); given `hold`, it
 * keeps per row the step at which the current domination of the cells
 * i >= hold->watch (Jt > (Jt + Js) / 2 on every one of them) began
 * (march_holds).  The kernel returns after completing a step at which
 *
 *   - a trapped value fell below its row's floor or a streaming value below
 *     zero, or either is NaN: *negative is set, and the caller names the
 *     row and cell;
 *   - a row's hold ended: it had been dominated since step j and the step's
 *     time reached max(confirm t, t + min_hold), t = j dt (a confirmed
 *     takeover of the spurious sweep);
 *   - a row's running sup of Jt + Js exceeded red->bound;
 *   - a row's relative change fell below red->stat_tol;
 *
 * or after `steps` steps.  The first non-monotone step is recorded, and a
 * domination that begins or ends is recorded, not returned at.  *used is
 * the number of threads that ran, 1 or 2.
 */

/* The cells of a block; a power of two, so that a block's loops split into
 * whole vectors at every clone's width. */
#define MARCH_BLOCK 128

/* The pauses a thread of a split march spins before it yields its CPU. */
#define MARCH_SPINS 1024

#if defined(__x86_64__) || defined(__i386__)
#define SPIN_PAUSE() __builtin_ia32_pause()
#else
#define SPIN_PAUSE() ((void)0)
#endif

/* numpy's maximum(a, b): a NaN operand propagates, and of two equal
 * operands (+0 and -0) b is returned. */
static INLINE double np_max(double a, double b) { return (a != a || a > b) ? a : b; }

/* numpy's maximum(a, b) and minimum(a, b) where b is not NaN (a constant,
 * or kaB), as one compare and one select, so that the passes vectorize. */
static INLINE double max_b(double a, double b) { return !(a <= b) ? a : b; }
static INLINE double min_b(double a, double b) { return !(a >= b) ? a : b; }

/* Python's max(a, b). */
static INLINE double py_max(double a, double b) { return b > a ? b : a; }

/* The flags below are doubles, 0.0 or 1.0, set by a select: a flag of the
 * width of the values keeps its loop vectorizable. */

/* Pass 1: the fluxes F[1..n] at the block's outer faces, given F[0] at its
 * first; the face r_max, where the row's last block ends, has zero flux. */
static INLINE void face_fluxes(int n, int last, const double *restrict jt,
                               const double *restrict rf2, const double *restrict inv_kf3,
                               double *restrict F)
{
    const int faces = last ? n - 1 : n;
    for (int i = 0; i < faces; i++)
        F[i + 1] = rf2[i] * (jt[i + 1] - jt[i]) * inv_kf3[i];
    if (last)
        F[n] = 0.0;
}

/* Pass 2: the source, its regime tags (given `tag`), the new trapped values
 * and the streaming terms d S. */
static INLINE void sources(int n, double dt, const double *restrict jt, const double *restrict js,
                           const double *restrict F, const double *restrict ka,
                           const double *restrict kaB, const double *restrict inv_den,
                           const double *restrict inv_r2dr, const double *restrict d,
                           double *restrict jt_new, double *restrict terms,
                           signed char *restrict tag)
{
    for (int i = 0; i < n; i++) {
        const double inner = ka[i] * js[i] - (F[i + 1] - F[i]) * inv_r2dr[i];
        const double S = min_b(max_b(inner, 0.0), kaB[i]);
        jt_new[i] = (jt[i] + dt * (kaB[i] - S)) * inv_den[i];
        terms[i] = d[i] * S;
        if (tag)
            tag[i] = inner <= 0.0 ? 0 : inner >= kaB[i] ? 2 : 1;
    }
}

/* Pass 2 of a scan row: the terms d S (a / P). */
static INLINE void scan_terms(int n, const double *restrict aP, double *restrict terms)
{
    for (int i = 0; i < n; i++)
        terms[i] = terms[i] * aP[i];
}

/* Pass 3, in place: the flux r^2 g Js, as P times the scan's running sum or
 * as the sweep's running phi = (phi + d S) a, from the value `run` carried
 * from the row's cells before; returns the value to carry on.  A scan row's
 * sum starts at -0.0, which adds to the first term exactly, keeping its
 * sign as numpy's cumsum keeps it; a sweep row's phi starts at 0.0. */
static INLINE double prefix(int n, int scan, const double *restrict a, const double *restrict P,
                            double *restrict acc, double run)
{
    if (scan) {
        for (int i = 0; i < n; i++) {
            run = run + acc[i];
            acc[i] = P[i] * run;
        }
    } else {
        for (int i = 0; i < n; i++)
            acc[i] = run = (run + acc[i]) * a[i];
    }
    return run;
}

/* Pass 4: the new streaming values, and, given `flag`, the running sup's
 * flags carried in flag[2]: some Jt + Js exceeds sup, and some Jt + Js is
 * NaN.  Returns 1.0 if a value fell below its floor or is NaN (the compares
 * are negated, so that a NaN fails them). */
static INLINE double streaming(int n, const double *restrict jt_new, const double *restrict floor,
                               const double *restrict inv_r2g, const double *restrict flux,
                               double *restrict js_new, double sup, double *restrict flag)
{
    double bad = 0.0, above = flag ? flag[0] : 0.0, nan = flag ? flag[1] : 0.0;
    for (int i = 0; i < n; i++) {
        const double v = flux[i] * inv_r2g[i];
        bad = !(jt_new[i] >= floor[i]) ? 1.0 : bad;
        bad = !(v >= 0.0) ? 1.0 : bad;
        js_new[i] = v;
        if (flag) {
            const double t = jt_new[i] + v;
            above = t > sup ? 1.0 : above;
            nan = t != t ? 1.0 : nan;
        }
    }
    if (flag)
        flag[0] = above, flag[1] = nan;
    return bad;
}

/* The maxima of the relative change, numpy's, carried in max[4]:
 * max|dJt|, max|dJs|, max(0, Jt) and max(0, Js) from (jt, js) to
 * (jt_new, js_new), over a block of n <= MARCH_BLOCK cells.
 *
 * A max is exact, so its value does not depend on the order it is taken in,
 * except for a NaN, which numpy's propagates, and for the sign of a zero.
 * So a block without a NaN is reduced by halving: its values are staged,
 * padded to MARCH_BLOCK with the first (which a max leaves as it is), and
 * the upper half of each array is folded onto the lower half until one
 * value is left; each fold is elementwise and vectorizes, where a running
 * max, whose compare reads the value it updates, runs scalar.  A block with
 * a NaN takes numpy's running max, so the NaN carried is numpy's, and no
 * value of a later block replaces it, since none compares greater.  Only
 * the sign of a zero maximum may differ from numpy's: |dJ| is never -0, and
 * the change floors its scale at 2^-1074, so the change keeps its bits. */
static INLINE void change_maxima(int n, const double *restrict jt, const double *restrict js,
                                 const double *restrict jt_new, const double *restrict js_new,
                                 double max[4])
{
    double v[4][MARCH_BLOCK], nan = 0.0;
    for (int i = 0; i < n; i++) {
        v[0][i] = fabs(jt_new[i] - jt[i]);
        v[1][i] = fabs(js_new[i] - js[i]);
        v[2][i] = jt_new[i];
        v[3][i] = js_new[i];
        /* a NaN in jt_new or js_new makes its difference NaN too */
        nan = v[0][i] != v[0][i] || v[1][i] != v[1][i] ? 1.0 : nan;
    }
    if (nan != 0.0) {
        for (int i = 0; i < n; i++)
            for (int k = 0; k < 4; k++)
                max[k] = np_max(max[k], v[k][i]);
        return;
    }
    for (int k = 0; k < 4; k++) {
        double *restrict x = v[k];
        for (int i = n; i < MARCH_BLOCK; i++)
            x[i] = x[0];
        for (int w = MARCH_BLOCK / 2; w > 0; w /= 2)
            for (int i = 0; i < w; i++)
                x[i] = x[i + w] > x[i] ? x[i + w] : x[i];
        max[k] = x[0] > max[k] ? x[0] : max[k];
    }
}

/* max(sup, max(Jt + Js)), the max over cells numpy's, given the flags over
 * the cells: a NaN sum leaves sup as it is.  Only when a sum exceeds sup is
 * the max taken.  No sum is NaN then, so the max is exact in any order, and
 * it is taken in SUP_LANES running maxima, one per cell modulo SUP_LANES,
 * which vectorize, and then over those; the sup is never -0 (it starts at
 * +0 and takes only a greater value), so neither is the sign of a zero in
 * doubt. */
#define SUP_LANES 8
static INLINE double running_sup(int n, double sup, const double *restrict jt,
                                 const double *restrict js, const double flag[2])
{
    if (flag[0] == 0.0 || flag[1] != 0.0)
        return sup;
    double lane[SUP_LANES];
    for (int k = 0; k < SUP_LANES; k++)
        lane[k] = sup;
    int i = 0;
    for (; i + SUP_LANES <= n; i += SUP_LANES)
        for (int k = 0; k < SUP_LANES; k++)
            lane[k] = py_max(lane[k], jt[i + k] + js[i + k]);
    for (; i < n; i++)
        sup = py_max(sup, jt[i] + js[i]);
    for (int k = 0; k < SUP_LANES; k++)
        sup = py_max(sup, lane[k]);
    return sup;
}

/* Whether Jt[i + 1] - Jt[i] > tol for some i < pairs. */
static INLINE int nonmonotone(int pairs, double tol, const double *restrict jt)
{
    double any = 0.0;
    for (int i = 0; i < pairs; i++)
        any = jt[i + 1] - jt[i] > tol ? 1.0 : any;
    return any != 0.0;
}

/* Whether Jt > (Jt + Js) / 2 on every cell from i0 on. */
static INLINE int dominated(int n, int i0, const double *restrict jt, const double *restrict js)
{
    double not_all = 0.0;
    for (int i = i0; i < n; i++)
        not_all = !(jt[i] > 0.5 * (jt[i] + js[i])) ? 1.0 : not_all;
    return not_all == 0.0;
}

/* Updates row r's hold after step k, which left it dominated or not;
 * returns whether the hold ended there. */
static INLINE int hold_ended(const march_holds *h, int r, long long k, double dt, int dom)
{
    if (!dom) {
        h->since[r] = -1;
        return 0;
    }
    if (h->since[r] < 0)
        h->since[r] = k;
    const double t = (double)h->since[r] * dt;
    return (double)k * dt >= py_max(h->confirm * t, t + h->min_hold);
}

/*
 * What one step of a row's cells [lo, hi) takes from the cells before them
 * and gives to the cells after (the carry), and what it reduces over them.
 * The carry's maxima run on through the row, block after block; the
 * reductions are each a max, an any or an all over the range, so those of
 * two ranges combine exactly (merge_part()).
 */
typedef struct {
    double F;                     /* the flux at face lo, then at face hi */
    double run;                   /* the prefix's running sum or phi */
    double max[4];                /* change_maxima()'s */
    double sup;                   /* in: the sup to flag against; out: max(sup, Jt + Js) if a
                                   * sum passed it and none is NaN (running_sup()) */
    int nan;                      /* some Jt + Js is NaN */
    int bad;                      /* a value failed a negativity check */
    int nonmono;                  /* a pair i < mono_pairs, i + 1 in the range, is non-monotone */
    int dominated;                /* every watched cell of the range is dominated */
} march_part;

/* The part that goes on from p's carry, flagging against sup. */
static INLINE march_part carried(const march_part *p, double sup)
{
    return (march_part){.F = p->F, .run = p->run,
                        .max = {p->max[0], p->max[1], p->max[2], p->max[3]}, .sup = sup};
}

/*
 * One step of the cells [lo, hi) of row r, from (jt, js) into (jt_new,
 * js_new) and the tags `tag` (NULL: none), each pointing at the row's
 * first cell, given the carry in p; leaves the carry and the range's
 * reductions in p.
 */
MARCH_CLONES
static void step_range(const march_rows *m, const march_reductions *red,
                       const march_holds *hold, int r, int lo, int hi, const double *jt,
                       const double *js, double *jt_new, double *js_new, signed char *tag,
                       march_part *p)
{
    const int n = m->n_cells, scan = r < m->n_scan;
    const long o = (long)r * n, of = (long)r * (n - 1);
    /* a block's face fluxes, then its streaming terms, prefix and fluxes */
    double F[MARCH_BLOCK + 1], acc[MARCH_BLOCK], flag[2] = {0.0, 0.0}, run = p->run;
    int bad = 0;

    F[0] = p->F;
    for (int b = lo; b < hi; b += MARCH_BLOCK) {
        const int len = hi - b < MARCH_BLOCK ? hi - b : MARCH_BLOCK;
        const long c = o + b, cf = of + b;
        face_fluxes(len, b + len == n, jt + b, m->rf2 + cf, m->inv_kf3 + cf, F);
        sources(len, m->dt, jt + b, js + b, F, m->ka + c, m->kaB + c, m->inv_den + c,
                m->inv_r2dr + c, m->d + c, jt_new + b, acc, tag ? tag + b : NULL);
        if (scan)
            scan_terms(len, m->aP + c, acc);
        run = prefix(len, scan, m->a + c, m->P + c, acc, run);
        bad |= streaming(len, jt_new + b, m->floor + c, m->inv_r2g + c, acc, js_new + b, p->sup,
                         red ? flag : NULL) != 0.0;
        if (red && red->stat_tol > 0.0)
            change_maxima(len, jt + b, js + b, jt_new + b, js_new + b, p->max);
        F[0] = F[len];
    }
    p->F = F[0], p->run = run, p->bad = bad;
    if (red) {
        /* the pairs i whose right cell i + 1 is in the range */
        const int i0 = lo > 0 ? lo - 1 : 0;
        const int i1 = hi - 1 < red->mono_pairs ? hi - 1 : red->mono_pairs;
        p->nonmono = i1 > i0 && nonmonotone(i1 - i0, red->mono_tol, jt_new + i0);
        p->nan = flag[1] != 0.0;
        p->sup = running_sup(hi - lo, p->sup, jt_new + lo, js_new + lo, flag);
    }
    if (hold)
        p->dominated = dominated(hi, lo > hold->watch ? lo : hold->watch, jt_new, js_new);
}

/* Folds the reductions of the cells before p's into p's. */
static INLINE void merge_part(march_part *p, const march_part *before)
{
    p->sup = py_max(p->sup, before->sup);
    p->nan |= before->nan;
    p->bad |= before->bad;
    p->nonmono |= before->nonmono;
    p->dominated &= before->dominated;
}

/* The bytes of a cache line: what one thread writes and another reads is
 * kept apart from what either only reads, and from what the other writes,
 * so that a handoff moves only the lines it hands off. */
#define LINE 64

/* A row's seam in a split march: the head's part of a step, by the step's
 * parity, and the row's sup as the tail last reduced it. */
typedef struct {
    _Alignas(LINE) march_part head[2];
    _Alignas(LINE) _Atomic double sup;
} march_seam;

/* One call of march(), shared by its threads. */
typedef struct {
    const march_rows *m;
    march_reductions *red;
    march_holds *hold;
    const double *Jt0, *Js0;
    double *Jt, *Js;
    signed char *tags;
    long long k0;
    long steps;
    int split;                   /* the head's cells [0, split); 0: not split */
    march_seam *seams;           /* per row, when split */
    /* the last unit (step s, row r), numbered s n_rows + r + 1, whose head
     * is done; then, on the tail's own line, the last whose tail's first
     * block is done, and whether the tail has taken its last step */
    _Alignas(LINE) atomic_llong head_done;
    _Alignas(LINE) atomic_llong tail_first;
    atomic_int stop;
    long taken;                  /* the steps taken */
    int negative;                /* the last of them failed a negativity check */
} march_job;

enum { MARCH_WHOLE, MARCH_HEAD, MARCH_TAIL };

/* Waits until *count reaches target; returns 0 if *stop (if given) is set first. */
static int wait_for(atomic_llong *count, long long target, atomic_int *stop)
{
    int spins = 0;
    while (atomic_load_explicit(count, memory_order_acquire) < target) {
        if (stop && atomic_load_explicit(stop, memory_order_relaxed))
            return 0;
        if (spins < MARCH_SPINS) {
            SPIN_PAUSE();
            spins++;
        } else {
            sched_yield();
        }
    }
    return 1;
}

/*
 * The steps of a march, on its whole rows or on their heads or tails
 * (march()).  A tail steps its range in two parts, and hands its first
 * block on between them.  The tail goes on to a step only once it has
 * decided not to stop at the one before, so a head that has waited for a
 * tail's first block of step k knows that the march goes on past step
 * k - 1, whose fields step k + 1 overwrites.  All but the head reduce and
 * decide whether to stop.
 */
static void march_steps(march_job *job, int role)
{
    const march_rows *m = job->m;
    march_reductions *red = job->red;
    march_holds *hold = job->hold;
    const int n = m->n_cells, rows = m->n_rows;
    const int lo = role == MARCH_TAIL ? job->split : 0, hi = role == MARCH_HEAD ? job->split : n;
    /* a tail hands its first block on before it steps the rest */
    const int cut = role == MARCH_TAIL ? lo + MARCH_BLOCK : hi;
    const double *Jt_in = job->Jt0, *Js_in = job->Js0;
    long s = 0;
    int bad = 0;

    while (s < job->steps) {
        /* the first step writes (Jt, Js) and `tags`, the next the spare pair, ... */
        double *Jt_out = s & 1 ? m->Jt_spare : job->Jt, *Js_out = s & 1 ? m->Js_spare : job->Js;
        signed char *tags = !job->tags ? NULL : s & 1 ? m->tags_spare : job->tags;
        int stop = 0;
        bad = 0;
        for (int r = 0; r < rows; r++) {
            const long o = (long)r * n;
            const long long unit = (long long)s * rows + r + 1;
            march_seam *seam = role == MARCH_WHOLE ? NULL : job->seams + r;
            /* the sup to flag against: the head never reads red, which the tail writes */
            const double sup = !red ? 0.0
                               : role == MARCH_HEAD ? atomic_load_explicit(&seam->sup,
                                                                           memory_order_relaxed)
                               : red->sup[r];
            march_part p = {.F = 0.0, .run = r < m->n_scan ? -0.0 : 0.0, .sup = sup}, head = p,
                       first = p;
            /* a head's last face reads the Jt[split] that the tail's first
             * block of the step before wrote */
            if (role == MARCH_HEAD && s > 0 &&
                !wait_for(&job->tail_first, unit - rows, &job->stop))
                return;
            if (role == MARCH_TAIL) {
                wait_for(&job->head_done, unit, NULL);
                head = seam->head[s & 1];
                p = carried(&head, sup);
            }
            /* [lo, cut), then [cut, hi) */
            for (int a = lo, b = cut; a < hi; a = b, b = hi) {
                if (a > lo) {
                    atomic_store_explicit(&job->tail_first, unit, memory_order_release);
                    first = p;
                    p = carried(&first, sup);
                }
                step_range(m, red, hold, r, a, b, Jt_in + o, Js_in + o, Jt_out + o, Js_out + o,
                           tags ? tags + o : NULL, &p);
            }
            if (cut < hi)
                merge_part(&p, &first);
            if (role == MARCH_HEAD) {
                seam->head[s & 1] = p;
                atomic_store_explicit(&job->head_done, unit, memory_order_release);
                continue;
            }
            if (role == MARCH_TAIL)
                merge_part(&p, &head);
            bad |= p.bad;
            if (red && red->stat_tol > 0.0) {
                red->change[r] =
                    py_max(p.max[0], p.max[1]) / py_max(py_max(p.max[2], p.max[3]), 0x1p-1074);
                stop |= red->change[r] < red->stat_tol;
            }
            if (red) {
                red->sup[r] = p.nan ? sup : p.sup;
                red->nonmono[r] = (signed char)p.nonmono;
                if (p.nonmono && red->first_nonmono[r] < 0)
                    red->first_nonmono[r] = job->k0 + s + 1;
                stop |= red->sup[r] > red->bound;
                if (role == MARCH_TAIL)
                    atomic_store_explicit(&seam->sup, red->sup[r], memory_order_relaxed);
            }
            if (hold)
                stop |= hold_ended(hold, r, job->k0 + s + 1, m->dt, p.dominated);
        }
        s++;
        Jt_in = Jt_out, Js_in = Js_out;
        if (role == MARCH_HEAD)
            continue;
        if (bad || stop)
            break;
    }
    if (role != MARCH_HEAD) {
        job->taken = s;
        job->negative = bad;
        atomic_store_explicit(&job->stop, 1, memory_order_relaxed);
    }
}

/* The helper of a split march: the tails. */
static void *march_helper(void *job)
{
    march_steps(job, MARCH_TAIL);
    return NULL;
}

/* Steps k0 + 1 .. k0 + steps from (Jt0, Js0), into (Jt, Js); returns the steps taken. */
MARCH_CLONES
long march(const march_rows *m, march_reductions *red, march_holds *hold, const double *Jt0,
           const double *Js0, double *Jt, double *Js, signed char *tags, long long k0,
           long steps, int workers, int *negative, int *used)
{
    const int n = m->n_cells;
    march_job job = {.m = m, .red = red, .hold = hold, .Jt0 = Jt0, .Js0 = Js0, .Jt = Jt,
                     .Js = Js, .tags = tags, .k0 = k0, .steps = steps};
    *used = 1;
    if (workers > 1 && n >= MARCH_SPLIT_MIN_CELLS && steps > 1 &&
        (job.seams = aligned_alloc(LINE, (size_t)m->n_rows * sizeof *job.seams))) {
        /* the block edge nearest n / 2 */
        job.split = (n / 2 + MARCH_BLOCK / 2) / MARCH_BLOCK * MARCH_BLOCK;
        for (int r = 0; r < m->n_rows; r++)
            atomic_init(&job.seams[r].sup, red ? red->sup[r] : 0.0);
        atomic_init(&job.head_done, 0);
        atomic_init(&job.tail_first, 0);
        atomic_init(&job.stop, 0);
        pthread_t helper;
        if (pthread_create(&helper, NULL, march_helper, &job) == 0) {
            *used = 2;
            march_steps(&job, MARCH_HEAD);
            pthread_join(helper, NULL);
        }
        free(job.seams);
    }
    if (*used == 1)
        march_steps(&job, MARCH_WHOLE);
    *negative = job.negative;
    /* the last step wrote the spare pair, or none was taken */
    if (job.taken % 2 == 0) {
        const size_t cells = (size_t)m->n_rows * n;
        memcpy(Jt, job.taken ? m->Jt_spare : Jt0, cells * sizeof(double));
        memcpy(Js, job.taken ? m->Js_spare : Js0, cells * sizeof(double));
        if (tags && job.taken)
            memcpy(tags, m->tags_spare, cells);
    }
    return job.taken;
}

/* The instruction-set level of the clones (the march's and the oracle's
 * pass) that run in this process, or "default" where nothing is cloned. */
const char *march_isa(void) { return MARCH_ISA(); }

/*
 * The exact sphere's oracle (sphere.py): the adaptive quadrature of
 * quadrature.integrate_batch, run whole here for the oracle's two
 * integrands, with an exp of its own fused into the pass over the nodes.
 *
 * fixed_exp(x) evaluates exp in a fixed order of correctly rounded
 * operations (Tang, "Table-driven implementation of the exponential
 * function in IEEE floating-point arithmetic", ACM TOMS 15(2), 1989, with
 * a table of one entry): x = k ln2 + r with k = rint(x / ln2), so that
 * |r| <= ln2 / 2; r_hi = x - k ln2_hi is exact (ln2_hi holds 32 bits and
 * |k| < 2^11), r = r_hi - k ln2_lo; exp(r) = 1 + r + r^2 q(r), summed as
 * 1 + (r_hi - (k ln2_lo - r^2 q)) so that r's rounding enters once.
 * exp(x) is then that times 2^k, as y 2^a 2^(k - a): the first product is
 * exact, the second rounds once, also into the subnormal range and to
 * infinity, as ldexp does.  Its measured error is at most 0.83 ulp on 10^5
 * arguments over [-746, 710] against mpmath (test_native.py), and 0.87 ulp
 * on 2 10^7 more against long double.  x is clamped to [-746, 710] first,
 * outside of which exp is 0 or inf; NaN stays NaN.
 *
 * There is no branch and no table, so every clone vectorizes it; the
 * clamp's bounds are read once per call through a volatile, since gcc,
 * seeing constants there, splits the select into two paths that the
 * baseline (SSE2) vectorizer rejects.  sphere._exp is the same operations
 * in numpy, each correctly rounded, so the two give the same bits.
 */
#define ORACLE_NODES 15
#define ORACLE_TILE 256

static const double INV_LN2 = 0x1.71547652b82fep+0;
static const double LN2_HI = 0x1.62e42feep-1, LN2_LO = 0x1.a39ef35793c76p-33;
static const double EXP_SHIFT = 0x1.8p52; /* x + EXP_SHIFT - EXP_SHIFT is x rounded to an integer */
/*
 * q(r) ~ (exp(r) - 1 - r) / r^2, degree 10: mpmath's chebyfit of it on
 * |r| <= (1 + 1e-9) ln2 / 2, each coefficient rounded to double.  Its error
 * in exp(r), in exact arithmetic, is below 0.004 ulp over 2001 points of
 * that interval, and it takes one term fewer than q's Taylor polynomial of
 * the same accuracy (degree 11).
 */
static const double EXP_Q[11] = {
    0x1.1f72fc730fcb1p-29, 0x1.af4ddd849007ep-26, 0x1.27e4db67b42e0p-22, 0x1.71de023756530p-19,
    0x1.a01a01a6d7808p-16, 0x1.a01a01abe62ddp-13, 0x1.6c16c16c162d6p-10, 0x1.11111111100dfp-7,
    0x1.5555555555556p-5,  0x1.5555555555557p-3,  0x1p-1,
};
static volatile const double EXP_BOUNDS[2] = {-746.0, 710.0};

static INLINE double fixed_exp(double x, double lo, double hi)
{
    const double xc = min_b(max_b(x, lo), hi);
    const double t = xc * INV_LN2 + EXP_SHIFT, k = t - EXP_SHIFT;
    const double r_hi = xc - k * LN2_HI, r_lo = k * LN2_LO;
    const double r = r_hi - r_lo;
    double q = EXP_Q[0];
    for (int i = 1; i < 11; i++)
        q = EXP_Q[i] + r * q;
    const double y = 1.0 + (r_hi - (r_lo - r * r * q));
    /* 2^k = 2^a 2^b, a = floor(k / 2), b = k - a, from t's bits, which
     * hold k in their low ones: u = k + 2048 and h = a + 1024. */
    unsigned long long u, shift;
    memcpy(&u, &t, sizeof u);
    memcpy(&shift, &EXP_SHIFT, sizeof shift);
    u = u - shift + 2048;
    const unsigned long long h = u >> 1, a_bits = (h - 1) << 52, b_bits = (u - h - 1) << 52;
    double scale_a, scale_b;
    memcpy(&scale_a, &a_bits, sizeof scale_a);
    memcpy(&scale_b, &b_bits, sizeof scale_b);
    /* Below k = -1075 exp rounds to 0, and a factor 0 gives that 0 without
     * the slow subnormal path that an underflowing product takes. */
    scale_b = k < -1075.0 ? 0.0 : scale_b;
    return y * scale_a * scale_b;
}

/* exp of n values, for the tests of fixed_exp (not cloned: the tests
 * build each level on its own). */
void oracle_exp(long long n, const double *restrict x, double *restrict out)
{
    const double lo = EXP_BOUNDS[0], hi = EXP_BOUNDS[1];
    for (long long i = 0; i < n; i++)
        out[i] = fixed_exp(x[i], lo, hi);
}

/* The parts of a queued panel [a, b]: all of it, [a, s] and [s, b], s = 0.5 (a + b). */
enum { PANEL_WHOLE, PANEL_LEFT, PANEL_RIGHT };

/*
 * The Gauss-Legendre estimates of p queued panels [a_i, b_i] of owners
 * base + own[i], into est, shape (3, m): p columns for each part from
 * `first` to the right halves, so m = (3 - first) p.  A part [A, B] has
 * nodes x = mid + half node_j, mid = 0.5 (A + B) and half = 0.5 (B - A),
 * and at each node the pass evaluates the three integrands and adds them,
 * weighted, to the panel's sums in node order, from -0.0, the additive
 * identity, so the first add gives the bits of v_0 w_0; the sums times
 * half are the estimates.
 *
 * The inside integrand at mu, of owner radius r:
 *   RG = R sqrt(max(0, 1 - (r/R)^2 (1 - mu^2))),
 *   ep = exp(kappa (r mu - RG)), em = exp(-kappa (r mu + RG)),
 *   even = 0.5 (ep + em): even, mu 0.5 (ep - em) and mu^2 even.
 * The outside one at v, of owner rate -2 kappa r:
 *   e = exp(rate v), mu = sqrt(mu0^2 + v^2): v e / mu, v e and mu v e.
 *
 * Each operation is the one numpy runs in sphere.py, in its order, and is
 * correctly rounded, as numpy's is, and exp is fixed_exp on both paths.
 * So the estimates are the bits of the numpy path.  The pass works on
 * tiles of ORACLE_TILE panels, looping over the panels of a tile
 * innermost, so every loop runs across panels and vectorizes.
 */
MARCH_CLONES
static void panel_estimates(const oracle_integrand *g, long long base, long long p,
                            const int *own, const double *a, const double *b, int first,
                            double *est)
{
    const double R = g->R, kappa = g->kappa, lo = EXP_BOUNDS[0], hi = EXP_BOUNDS[1];
    const long long m = (3 - first) * p;
    for (int part = first; part <= PANEL_RIGHT; part++)
        for (long long i0 = 0; i0 < p; i0 += ORACLE_TILE) {
            const long long n = p - i0 < ORACLE_TILE ? p - i0 : ORACLE_TILE;
            /* per panel: mid, half, and the owner's r and (r/R)^2, or rate and mu0^2 */
            double mid[ORACLE_TILE], half[ORACLE_TILE], c[ORACLE_TILE], q2[ORACLE_TILE];
            double sum[3][ORACLE_TILE]; /* sum[c]: the weighted sum of component c */
            for (long long t = 0; t < n; t++) {
                const double x = a[i0 + t], y = b[i0 + t], split = 0.5 * (x + y);
                const double A = part == PANEL_RIGHT ? split : x;
                const double B = part == PANEL_LEFT ? split : y;
                mid[t] = 0.5 * (A + B);
                half[t] = 0.5 * (B - A);
                sum[0][t] = sum[1][t] = sum[2][t] = -0.0;
            }
            for (long long t = 0; t < n; t++) {
                const long long o = base + own[i0 + t];
                if (g->inside) {
                    c[t] = g->r[o];
                    const double q = c[t] / R;
                    q2[t] = q * q;
                } else {
                    c[t] = g->rate[o];
                    q2[t] = g->mu0_sq[o];
                }
            }
            for (int j = 0; j < ORACLE_NODES; j++) {
                const double node = g->node[j], w = g->weight[j];
                if (g->inside) {
                    for (long long t = 0; t < n; t++) {
                        const double mu = mid[t] + half[t] * node;
                        /* np.clip(., 0, None): NaN stays NaN, -0 becomes 0 */
                        const double arg = max_b(1.0 - q2[t] * (1.0 - mu * mu), 0.0);
                        const double RG = R * sqrt(arg), rmu = c[t] * mu;
                        const double ep = fixed_exp(kappa * (rmu - RG), lo, hi);
                        const double em = fixed_exp(-kappa * (rmu + RG), lo, hi);
                        const double even = 0.5 * (ep + em), odd = 0.5 * (ep - em);
                        sum[0][t] = sum[0][t] + even * w;
                        sum[1][t] = sum[1][t] + mu * odd * w;
                        sum[2][t] = sum[2][t] + mu * mu * even * w;
                    }
                } else {
                    for (long long t = 0; t < n; t++) {
                        const double v = mid[t] + half[t] * node;
                        const double e = fixed_exp(c[t] * v, lo, hi);
                        const double mu = sqrt(q2[t] + v * v), ve = v * e;
                        sum[0][t] = sum[0][t] + ve / mu * w;
                        sum[1][t] = sum[1][t] + ve * w;
                        sum[2][t] = sum[2][t] + mu * ve * w;
                    }
                }
            }
            double *out = est + (part - first) * p + i0;
            for (int k = 0; k < 3; k++)
                for (long long t = 0; t < n; t++)
                    out[k * m + t] = sum[k][t] * half[t];
        }
}

/* The most threads one call runs, the calling one included. */
#define ORACLE_MAX_WORKERS 64

/* A panel queue: each panel's block-local owner, bounds and estimate (3, size). */
typedef struct {
    int *own;
    double *a, *b, *est;
} oracle_queue;

/* One worker's buffers, its slice of the call's one allocation (oracle_integrate),
 * 1.42 MB at quadrature's defaults.  Level 0 reads lo and hi in place. */
typedef struct {
    double *E;                  /* the estimates of the parts evaluated (3, eval) */
    double *err;                /* the queue's errors (3, queue) */
    signed char *done;
    oracle_queue q[2];          /* the live queue and the next one */
    /* per owner: accepted sums, totals and error sums (3, block); span, flag, count */
    double *acc, *total, *err_sum, *span, *flag;
    long long *count;
} oracle_scratch;

/* Lays out a worker's buffers from base, the 8-byte ones first so that each
 * is aligned, and returns their bytes; from NULL it only measures them. */
static size_t lay_out(oracle_scratch *s, char *base, long long eval, long long queue, int block)
{
    size_t at = 0;
#define TAKE(p, n) ((p) = base ? (void *)(base + at) : NULL, at += (size_t)(n) * sizeof *(p))
    TAKE(s->E, 3 * eval);
    TAKE(s->err, 3 * queue);
    for (int k = 0; k < 2; k++) {
        TAKE(s->q[k].a, queue);
        TAKE(s->q[k].b, queue);
        TAKE(s->q[k].est, 3 * queue);
    }
    TAKE(s->acc, 3 * block);
    TAKE(s->total, 3 * block);
    TAKE(s->err_sum, 3 * block);
    TAKE(s->span, block);
    TAKE(s->flag, block);
    TAKE(s->count, block);
    TAKE(s->q[0].own, queue);
    TAKE(s->q[1].own, queue);
    TAKE(s->done, queue);
#undef TAKE
    return at;
}

/* Evaluates the parts from `first` of the p panels [a_i, b_i] of owners
 * base + own[i] into s->E, and names the first with a non-finite estimate
 * (its first such component); returns whether all are finite, and counts
 * them if so. */
static int evaluate(const oracle_integrand *g, long long base, long long p, const int *own,
                    const double *a, const double *b, int first, oracle_scratch *s,
                    oracle_status *st)
{
    const long long m = (3 - first) * p;
    panel_estimates(g, base, p, own, a, b, first, s->E);
    double bad = 0.0;
    for (long long k = 0; k < 3 * m; k++)
        bad = !(fabs(s->E[k]) <= DBL_MAX) ? 1.0 : bad;
    if (bad != 0.0) {
        for (long long i = 0; i < m; i++)
            for (int c = 0; c < 3; c++)
                if (!isfinite(s->E[c * m + i])) {
                    st->kind = ORACLE_NON_FINITE;
                    st->owner = base + own[i % p];
                    st->value = s->E[c * m + i];
                    return 0;
                }
    }
    st->panels += m;
    return 1;
}

/*
 * quadrature._retired for component c of a panel: its owner's error sum
 * meets the budget max(tol, tol |total|), or its error the
 * width-proportional 0.25 budget width / span.  tol is positive, so the
 * max is max_b's.
 */
static INLINE int meets(double err, double err_sum, double total, double width, double span,
                        double tol)
{
    const double budget = max_b(tol * fabs(total), tol);
    return (err_sum <= budget) | (err <= 0.25 * budget * width / span);
}

/*
 * quadrature._integrate_block for the owners base .. base + nb - 1, into
 * s->acc (3, nb): level 0 evaluates every owner's whole panel [lo, hi] and
 * both halves, then each level queues the halves of the live panels, the
 * left ones first, and evaluates the halves of those.  The sums run in
 * numpy's order: np.add.at adds in panel order.  Level 0, which holds most
 * of the work outside the passes, runs as loops over owners that
 * vectorize.  s holds any level (oracle_integrate).
 */
static int integrate_block(const oracle_integrand *g, long long base, int nb, const double *lo,
                           const double *hi, double tol, int max_depth, long long max_live,
                           oracle_scratch *s, oracle_status *st)
{
    double *acc = s->acc, *total = s->total, *err_sum = s->err_sum, *span = s->span,
           *flag = s->flag, *err = s->err, *E = s->E;
    long long *count = s->count;
    /* the live queue: level 0's owners, with its bounds lo and hi */
    oracle_queue *q = &s->q[0];
    const double *a = lo, *b = hi;
    for (int i = 0; i < nb; i++) {
        span[i] = max_b(hi[i] - lo[i], 0x1p-1022);
        q->own[i] = i;
    }
    if (!evaluate(g, base, nb, q->own, a, b, PANEL_WHOLE, s, st))
        return 0;

    /* Level 0: refined = left + right, err = |est - refined|, and each
     * owner's sums are its one panel's (0.0 + refined). */
    long long p = nb, m = 3LL * nb;
    for (int i = 0; i < nb; i++)
        flag[i] = 1.0;
    for (int c = 0; c < 3; c++) {
        const double *est = E + c * m, *l = est + p, *r = est + 2 * p;
        double *restrict e = err + c * p, *restrict sums = acc + c * nb;
        for (int i = 0; i < nb; i++) {
            const double refined = l[i] + r[i];
            e[i] = fabs(est[i] - refined);
            sums[i] = 0.0 + refined;
            flag[i] = meets(e[i], e[i], sums[i], hi[i] - lo[i], span[i], tol) ? flag[i] : 0.0;
        }
    }
    for (int c = 0; c < 3; c++)
        for (int i = 0; i < nb; i++)
            acc[c * nb + i] = flag[i] != 0.0 ? acc[c * nb + i] : 0.0;
    for (int i = 0; i < nb; i++)
        s->done[i] = flag[i] != 0.0;

    int depth = 0;
    for (;;) {
        long long live = 0;
        for (long long i = 0; i < p; i++)
            live += !s->done[i];
        if (live == 0)
            return 1;
        live *= 2;

        if (depth + 1 > max_depth) {
            /* the first kept panel of the largest error over components */
            long long worst = -1;
            double worst_err = 0.0;
            for (long long i = 0; i < p; i++) {
                if (s->done[i])
                    continue;
                const double e = np_max(np_max(err[i], err[p + i]), err[2 * p + i]);
                if (worst < 0 || e > worst_err || (e != e && worst_err == worst_err)) {
                    worst = i;
                    worst_err = e;
                }
            }
            st->kind = ORACLE_TOO_DEEP;
            st->owner = base + q->own[worst];
            st->value = worst_err;
            return 0;
        }
        if (live > max_live) {
            memset(count, 0, nb * sizeof *count);
            for (long long i = 0; i < p; i++)
                count[q->own[i]] += !s->done[i];
            int top = 0;
            for (int o = 1; o < nb; o++)
                if (count[o] > count[top])
                    top = o;
            st->kind = ORACLE_TOO_MANY;
            st->owner = base + top;
            st->live = live;
            st->held = 2 * count[top];
            st->depth = depth + 1;
            return 0;
        }

        /* Bisect the kept panels: the left halves, then the right ones. */
        oracle_queue *next = &s->q[(depth + 1) & 1];
        /* the columns of E that hold the kept panels' left and right halves */
        const long long half = live / 2, left = m - 2 * p, right = m - p;
        for (long long i = 0, k = 0; i < p; i++) {
            if (s->done[i])
                continue;
            next->own[k] = next->own[half + k] = q->own[i];
            next->a[k] = a[i];
            next->b[k] = next->a[half + k] = 0.5 * (a[i] + b[i]);
            next->b[half + k] = b[i];
            for (int c = 0; c < 3; c++) {
                next->est[c * live + k] = E[c * m + left + i];
                next->est[c * live + half + k] = E[c * m + right + i];
            }
            k++;
        }
        q = next;
        a = q->a;
        b = q->b;
        p = live;
        m = 2 * p;
        depth++;

        if (!evaluate(g, base, p, q->own, a, b, PANEL_LEFT, s, st))
            return 0;
        st->max_depth = depth > st->max_depth ? depth : st->max_depth;
        st->max_live = p > st->max_live ? p : st->max_live;

        /* totals = accepted + the refined sums, err_sum the error sums, by
         * owner in panel order; then which panels retire, and their sums */
        memcpy(total, acc, 3 * nb * sizeof *total);
        memset(err_sum, 0, 3 * nb * sizeof *err_sum);
        for (long long i = 0; i < p; i++)
            for (int c = 0; c < 3; c++) {
                const double refined = E[c * m + i] + E[c * m + p + i];
                err[c * p + i] = fabs(q->est[c * p + i] - refined);
                total[c * nb + q->own[i]] += refined;
                err_sum[c * nb + q->own[i]] += err[c * p + i];
            }
        for (long long i = 0; i < p; i++) {
            const int o = q->own[i];
            int c = 0;
            while (c < 3 && meets(err[c * p + i], err_sum[c * nb + o], total[c * nb + o],
                                  b[i] - a[i], span[o], tol))
                c++;
            s->done[i] = c == 3;
        }
        for (long long i = 0; i < p; i++)
            if (s->done[i])
                for (int c = 0; c < 3; c++)
                    acc[c * nb + q->own[i]] += E[c * m + i] + E[c * m + p + i];
    }
}

/*
 * One call of oracle_integrate, shared by its workers: the problem, the
 * next block to take, the lowest block known to have failed (n_blocks
 * while none has), each block's status, and the workers' scratch with the
 * next one to take.
 */
typedef struct {
    const oracle_integrand *g;
    long long n, n_blocks;
    const double *lo, *hi;
    double tol;
    int block, max_depth;
    long long max_live;
    double *out;
    oracle_status *slots;
    oracle_scratch *scratch;
    atomic_llong next, failed;
    atomic_int seat;
} oracle_job;

/*
 * A worker: takes a scratch, then the next block until none is left, and
 * writes the block's values into out and its outcome into its slot.  A
 * block after one known to have failed is not integrated: the merge stops
 * at the first failure.
 */
static void *oracle_worker(void *arg)
{
    oracle_job *job = arg;
    const int block = job->block;
    oracle_scratch *s = &job->scratch[atomic_fetch_add(&job->seat, 1)];
    for (;;) {
        const long long k = atomic_fetch_add(&job->next, 1);
        if (k >= job->n_blocks || k > atomic_load(&job->failed))
            break;
        const long long base = k * block, n = job->n;
        const int nb = n - base < block ? (int)(n - base) : block;
        if (integrate_block(job->g, base, nb, job->lo + base, job->hi + base, job->tol,
                            job->max_depth, job->max_live, s, &job->slots[k])) {
            for (int c = 0; c < 3; c++)
                memcpy(job->out + c * n + base, s->acc + c * nb, nb * sizeof *job->out);
        } else {
            long long failed = atomic_load(&job->failed);
            while (k < failed && !atomic_compare_exchange_weak(&job->failed, &failed, k))
                ;
        }
    }
    return NULL;
}

#ifdef __SANITIZE_ADDRESS__
#define map_memory malloc
#define unmap_memory(p, bytes) free(p)
#else
static void *map_memory(size_t bytes)
{
    void *p = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    return p == MAP_FAILED ? NULL : p;
}
#define unmap_memory munmap
#endif

/*
 * integrate_batch over the n owners with limits lo and hi, for the oracle's
 * integrand g, into out (3, n), in blocks of `block` owners; status says
 * how it ended and counts the work.  On a failure out is partly written.
 *
 * Blocks are independent, so up to `workers` threads integrate them: the
 * calling thread and min(workers, blocks) - 1 helpers, started and joined
 * here, each taking the next block in turn.  The blocks' outcomes are then
 * merged in block order, as one thread taking them in turn would have
 * counted them, up to the first failing block, whose failure is reported.
 * So the values, counts and failures do not depend on the number of
 * workers, nor on which worker took which block.  status->workers is the
 * number of threads that ran (a helper that cannot be started is not).
 *
 * The call allocates its memory once, before any thread starts: the
 * blocks' slots, then a slice per thread that may run, for the largest
 * level of a block: 3 nb panels evaluated and nb queued at level 0, 2 live
 * and live deeper, once live has passed its check against max_live: 1.42 MB
 * at quadrature's defaults.
 * ORACLE_NO_MEMORY is that allocation failing, or a cap too large for any
 * address space.  The memory is mapped, not malloc'd: glibc raises its mmap
 * threshold to the size of each mapped block it frees, after which numpy's
 * freed arrays below it stay resident (2 MB more peak RSS at 19998 cells).
 * Untouched pages cost nothing; each page a level writes costs a fault.
 * ASan guards malloc's blocks, not mappings, so its build mallocs.
 */
void oracle_integrate(const oracle_integrand *g, long long n, const double *lo, const double *hi,
                      double tol, int block, int max_depth, long long max_live, int workers,
                      double *out, oracle_status *status)
{
    memset(status, 0, sizeof *status);
    const long long n_blocks = (n + block - 1) / block;
    const long long want = workers < n_blocks ? workers : n_blocks;
    const int seats = want < 1 ? 1 : want < ORACLE_MAX_WORKERS ? (int)want : ORACLE_MAX_WORKERS;
    const long long queue = max_live > block ? max_live : block;
    const long long eval = 3LL * block > 2 * max_live ? 3LL * block : 2 * max_live;
    oracle_scratch scratch[ORACLE_MAX_WORKERS];
    /* in whole doubles, so that each slice starts aligned */
    const size_t slots = n_blocks * sizeof(oracle_status),
                 slice = (lay_out(scratch, NULL, eval, queue, block) + 7) / 8 * 8,
                 bytes = slots + seats * slice;
    char *memory = queue <= PTRDIFF_MAX / 1024 / ORACLE_MAX_WORKERS ? map_memory(bytes) : NULL;
    if (!memory) {
        status->kind = ORACLE_NO_MEMORY;
        return;
    }
    oracle_job job = {.g = g, .n = n, .n_blocks = n_blocks, .lo = lo, .hi = hi, .tol = tol,
                      .block = block, .max_depth = max_depth, .max_live = max_live, .out = out,
                      .slots = memset(memory, 0, slots), .scratch = scratch};
    for (int k = 0; k < seats; k++)
        lay_out(&scratch[k], memory + slots + k * slice, eval, queue, block);
    atomic_init(&job.next, 0);
    atomic_init(&job.failed, n_blocks);
    atomic_init(&job.seat, 0);
    pthread_t helpers[ORACLE_MAX_WORKERS - 1];
    int started = 0;
    while (started + 1 < seats && pthread_create(&helpers[started], NULL, oracle_worker, &job) == 0)
        started++;
    oracle_worker(&job);
    for (int k = 0; k < started; k++)
        pthread_join(helpers[k], NULL);
    status->workers = started + 1;

    for (long long k = 0; k < n_blocks; k++) {
        const oracle_status *st = &job.slots[k];
        status->panels += st->panels;
        status->max_depth = st->max_depth > status->max_depth ? st->max_depth : status->max_depth;
        status->max_live = st->max_live > status->max_live ? st->max_live : status->max_live;
        if (st->kind != ORACLE_OK) {
            status->kind = st->kind;
            status->owner = st->owner;
            status->value = st->value;
            status->live = st->live;
            status->held = st->held;
            status->depth = st->depth;
            break;
        }
    }
    unmap_memory(memory, bytes);
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

/*
 * dgtsv's right-hand-side pass, given gtsv_factor's output: the solution b
 * (n) of A b = x, where b may be x.  Given a domain-split step `s`, the
 * pass is that step of reformed_march(), with its work fused into dgtsv's
 * two passes, which are chains of dependent operations, so that it runs
 * in their shadow:
 *
 * - the forward pass forms the right-hand side x + dt q and flags a
 *   non-finite entry, and then the back substitution is skipped;
 * - the back substitution, once rows m - 1 and m - 2 are solved, takes the
 *   face gradient and from it the streaming scale and threshold
 *   (ReformedScheme._streaming); then each row i flags a trapped value
 *   below s->floor and, from the gradient at row i + 1, whose three values
 *   are now known, a streaming value scale dJt/dr below the threshold; and
 *   it folds max |b - x| and max |b| (numpy's max, NaN if any value is).
 *
 * Each is computed by the operations of the numpy step, in its order, so
 * the bits and the flags are its.  Its back substitution multiplies by
 * s->rd, the pivots' reciprocals rounded once per scheme, where dgtsv
 * divides by d: a division on the chain of dependent operations cost
 * about a quarter of the step.  The numpy step's Python solve multiplies
 * by the same reciprocals, so the bits are still its, but no longer
 * dgtsv's (within tens of ulps).  Returns 1 if the step failed a check,
 * and otherwise 0 with its relative change in *change,
 * max |dJt| / max(max |Jt|, 2^-1074).  gtsv_solve() calls the pass
 * without `s`, and so divides, with dgtsv's bits; the pass is inlined
 * there, and the compiler drops the extras.
 */
static INLINE int gtsv_pass(int n, const double *dl, const double *d, const double *du,
                            const double *fact, const signed char *swap,
                            const reformed_step *s, const double *x, double *b, double *change)
{
    double bad = 0.0;
    if (s) {
        b[0] = x[0] + s->dtq;
        bad = isfinite(b[0]) ? bad : 1.0;
    }
    for (int i = 0; i < n - 1; i++) {
        double next = x[i + 1];
        if (s) {
            next = next + s->dtq;
            bad = isfinite(next) ? bad : 1.0;
        }
        if (!swap[i]) {
            b[i + 1] = next - fact[i] * b[i];
        } else {
            const double temp = b[i];
            b[i] = next;
            b[i + 1] = temp - fact[i] * next;
        }
    }
    if (bad != 0.0)
        return 1;
    b[n - 1] = s ? b[n - 1] * s->rd[n - 1] : b[n - 1] / d[n - 1];
    if (n > 1) {
        const double r = b[n - 2] - du[n - 2] * b[n - 1];
        b[n - 2] = s ? r * s->rd[n - 2] : r / d[n - 2];
    }
    double scale = 0.0, thr = 0.0, dJ = 0.0, J = 0.0, two_dr = 0.0, three_dr = 0.0;
    if (s) {
        two_dr = 2.0 * s->dr, three_dr = 3.0 * s->dr;
        scale = s->scale;
        if (s->normalize) {
            const double face = (b[n - 2] - 9.0 * b[n - 1]) / three_dr;
            bad = face == 0.0 ? 1.0 : bad;
            scale = s->edge / face;
        }
        thr = s->floor * py_max(1.0, fabs(scale) / s->dr);
        const double g = -(3.0 * b[n - 1] + b[n - 2]) / three_dr;
        for (int i = n - 1; i >= n - 2; i--) {
            bad = b[i] < s->floor ? 1.0 : bad;
            dJ = np_max(dJ, fabs(b[i] - x[i]));
            J = np_max(J, fabs(b[i]));
        }
        bad = scale * g < thr ? 1.0 : bad;
    }
    for (int i = n - 3; i >= 0; i--) {
        const double r = b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2];
        b[i] = s ? r * s->rd[i] : r / d[i];
        if (s) {
            const double g = (b[i + 2] - b[i]) / two_dr;
            bad = b[i] < s->floor ? 1.0 : bad;
            bad = scale * g < thr ? 1.0 : bad;
            dJ = np_max(dJ, fabs(b[i] - x[i]));
            J = np_max(J, fabs(b[i]));
        }
    }
    if (s) {
        bad = scale * ((b[1] - b[0]) / two_dr) < thr ? 1.0 : bad;
        *change = dJ / py_max(J, 0x1p-1074);
    }
    return bad != 0.0;
}

void gtsv_solve(int n, const double *dl, const double *d, const double *du,
                const double *fact, const signed char *swap, double *b)
{
    gtsv_pass(n, dl, d, du, fact, swap, NULL, b, b, NULL);
}

/*
 * The domain-split march (ReformedScheme.run_to_stationarity): up to
 * `steps` steps from Jt0, m = s->m cells, each gtsv_pass() with the step's
 * checks.  The first step reads Jt0, which is never written, and writes
 * Jt; later steps alternate between Jt and s->spare.  Returns the steps
 * taken, with the last one's state in Jt and its relative change in
 * *change, after `steps` steps, after a step whose change is below
 * stat_tol (0: none is), or before a step that fails a check: then
 * *failed is set, and Jt holds the state the failed step started from.
 */
long reformed_march(const reformed_step *s, const double *Jt0, double *Jt, long steps,
                    double stat_tol, double *change, int *failed)
{
    const double *in = Jt0;
    double *out = Jt;
    long k = 0;
    *failed = 0;
    while (k < steps) {
        double c;
        if (gtsv_pass(s->m, s->dl, s->d, s->du, s->fact, s->swap, s, in, out, &c)) {
            *failed = 1;
            break;
        }
        k++;
        *change = c;
        in = out;
        out = out == Jt ? s->spare : Jt;
        if (c < stat_tol)
            break;
    }
    if (in != Jt)
        memcpy(Jt, in, (size_t)s->m * sizeof(double));
    return k;
}

/*
 * CSV rows: format_rows writes n_rows rows of n_cols cells, separated by
 * commas and ended by newlines, into out, and returns the bytes written.
 * A float cell is written as "%.17g" (what Python's format(x, ".17g")
 * writes: every NaN is "nan"), a bool as 0 or 1 and a text cell verbatim.
 * out must hold the widest case: 24 bytes per float cell, 1 per bool, the
 * text, and n_cols separators per row.
 *
 * The rows are independent, so up to `workers` threads write them: the
 * block is cut into min(workers, n_rows / FORMAT_MIN_ROWS) contiguous row
 * ranges, at least one.  The calling thread writes the first and a helper
 * started here each other one, or the calling thread after its own where
 * a helper cannot be started.  Each range writes from its widest case's
 * offset in out, the widest cases of the ranges before it summed, so no
 * two ranges touch one byte; after the joins, one memmove per range closes
 * the gap before it.  So the bytes do not depend on how many threads ran,
 * and *used is how many did.
 *
 * format_double writes NaN, +-0 and every 1e-38 < |x| < 1e17 itself, with
 * exact integer arithmetic; glibc's snprintf, which is exact too, writes
 * the rest: subnormals, 0 < |x| <= 1e-38, |x| >= 1e17 and the infinities.
 */
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

/* The rows [r0, r1) of a block, from out on; returns the bytes written. */
static long long write_rows(long long r0, long long r1, int n_cols, const csv_column *cols,
                            char *out)
{
    char *o = out;
    for (long long r = r0; r < r1; r++) {
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

/* The widest case of the rows [r0, r1), r0 < r1. */
static long long rows_bound(long long r0, long long r1, int n_cols, const csv_column *cols)
{
    const long long n = r1 - r0;
    long long bytes = n * n_cols;  /* separators and newlines */
    for (int c = 0; c < n_cols; c++) {
        const csv_column *col = cols + c;
        if (col->kind == 'f')
            bytes += 24 * n;
        else if (col->kind == 'b')
            bytes += n;
        else if (col->ends)
            bytes += col->ends[r1 - 1] - (r0 ? col->ends[r0 - 1] : 0);
        else
            bytes += col->len * n;
    }
    return bytes;
}

/* One range of a block's rows and where its thread writes them. */
typedef struct {
    long long r0, r1;
    int n_cols;
    const csv_column *cols;
    char *out;
    long long written;
} csv_range;

static void *write_range(void *arg)
{
    csv_range *range = arg;
    range->written = write_rows(range->r0, range->r1, range->n_cols, range->cols, range->out);
    return NULL;
}

#define FORMAT_MAX_THREADS 64

long long format_rows(long long n_rows, int n_cols, const csv_column *cols, int workers,
                      char *out, int *used)
{
    const long long want = workers < n_rows / FORMAT_MIN_ROWS ? workers : n_rows / FORMAT_MIN_ROWS;
    const int n = want < 1 ? 1 : want < FORMAT_MAX_THREADS ? (int)want : FORMAT_MAX_THREADS;
    csv_range ranges[FORMAT_MAX_THREADS];
    char *at = out;
    for (int k = 0; k < n; k++) {
        const long long r0 = n_rows * k / n, r1 = n_rows * (k + 1) / n;
        ranges[k] = (csv_range){.r0 = r0, .r1 = r1, .n_cols = n_cols, .cols = cols, .out = at};
        if (k + 1 < n)
            at += rows_bound(r0, r1, n_cols, cols);
    }
    pthread_t helpers[FORMAT_MAX_THREADS];
    signed char started[FORMAT_MAX_THREADS];
    *used = 1;
    for (int k = 1; k < n; k++) {
        started[k] = pthread_create(&helpers[k], NULL, write_range, &ranges[k]) == 0;
        *used += started[k];
    }
    write_range(&ranges[0]);
    long long written = ranges[0].written;
    for (int k = 1; k < n; k++) {
        if (started[k])
            pthread_join(helpers[k], NULL);
        else
            write_range(&ranges[k]);
        memmove(out + written, ranges[k].out, ranges[k].written);
        written += ranges[k].written;
    }
    return written;
}
