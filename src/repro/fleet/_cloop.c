/* The fleet event kernel for fault-free runs, compiled at import time.
 *
 * This is a line-for-line transliteration of the fault-free branches of
 * the pure-Python loop in repro/fleet/server.py
 * (`FleetServer._fast_loop_python`; the recovery machine of fault
 * storms is not carried here) — same
 * events, same (time, seq) heap order, same float operations in the
 * same order, so the canonical flat state it produces is byte-identical
 * to the Python fallback's.  Compile with `-ffp-contract=off` (no FMA
 * contraction) so every double op rounds exactly like CPython's; on
 * x86-64 both use SSE2 doubles.
 *
 * All memory is owned by Python (numpy arrays); this kernel only reads
 * and writes through the pointers in FleetCtx.  When a buffer would
 * overflow, the kernel returns a pause status *before* consuming the
 * event; the ctypes wrapper grows the buffer, updates the context, and
 * calls fleet_run again — the loop resumes exactly where it stopped.
 *
 * The serve-stream error uniforms are drawn here, not pre-drawn: each
 * host's PCG64 lane (numpy's generator, XSL-RR output, next_double) is
 * stepped on demand through unsigned __int128 arithmetic.  A compiler
 * without that type fails the build, and the run takes the Python loop.
 *
 * Every struct field is 8 bytes wide (int64/double/pointer) so the
 * layout matches the ctypes.Structure in cloop.py with no padding.
 */

#include <stdint.h>

#ifndef __SIZEOF_INT128__
#error "the serve-stream PCG64 needs unsigned __int128"
#endif

typedef unsigned __int128 u128;

/* PCG_DEFAULT_MULTIPLIER_128 */
#define PCG_MULT ((((u128)2549297995355413924ULL) << 64) \
                  | (u128)4865540595714422341ULL)

#define ST_DONE 0
#define ST_GROW_HEAP 1
#define ST_GROW_NEED 2
#define ST_GROW_REP 3
#define ST_GROW_RET 4

#define K_REQUEST 0
#define K_DEADLINE 1
#define K_COMPLETE 2

typedef struct {
    /* sizes / params */
    int64_t n, nwu, quorum, max_replicas;
    double horizon, err_rate;
    int64_t n_delays;
    /* read-only host columns */
    const double *fs, *fe;
    const int64_t *soff;
    const double *departure, *an, *base, *stretch, *delays;
    /* per-host serve-stream PCG64 lanes as 64-bit halves */
    uint64_t *pcg_lo, *pcg_hi;
    const uint64_t *inc_lo, *inc_hi;
    /* work-unit state */
    uint8_t *wu_state;          /* 0 open, 1 validated, 2 bad-locked */
    double *wu_validated;
    int32_t *wu_issued, *wu_out, *wu_tmo, *wu_holders;
    uint8_t *wu_nhold;
    int32_t *wu_hosts;          /* stride max_replicas, count=wu_issued */
    /* replicas (growable) */
    int32_t *r_wid, *r_host;
    double *r_dead, *r_disp;
    uint8_t *r_flag;            /* bit0 timed out, bit1 completed */
    int64_t rep_cap;
    /* ok returns in delivery order (growable) */
    int32_t *ret_wid, *ret_host;
    double *ret_cpu;
    int64_t ret_cap;
    /* need ring buffer (growable) + stash scratch of equal capacity */
    int32_t *need;
    int64_t need_head, need_count, need_cap;
    int32_t *stash;
    /* event heap ordered by (t, seq) (growable) */
    double *h_t;
    int64_t *h_seq;
    uint64_t *h_pay;            /* kind<<32 | payload */
    int64_t heap_len, heap_cap;
    /* per-host mutable state */
    double *waste;
    int32_t *ucur, *poll_fail;
    int64_t *cur;               /* monotone session cursor */
    /* scalars */
    int64_t seq, n_valid, n_rep, ret_count;
    int64_t ok_n, err_n, stale_n, tmo_n, red_n;
    double err_cpu, stale_cpu, red_cpu;
    int64_t need_peak;          /* longest need queue after a dispatch */
} FleetCtx;

static void heap_push(FleetCtx *c, double t, int64_t seq, uint64_t pay)
{
    int64_t i = c->heap_len++;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (c->h_t[p] < t || (c->h_t[p] == t && c->h_seq[p] < seq))
            break;
        c->h_t[i] = c->h_t[p];
        c->h_seq[i] = c->h_seq[p];
        c->h_pay[i] = c->h_pay[p];
        i = p;
    }
    c->h_t[i] = t;
    c->h_seq[i] = seq;
    c->h_pay[i] = pay;
}

static void heap_pop(FleetCtx *c, double *t, uint64_t *pay)
{
    *t = c->h_t[0];
    *pay = c->h_pay[0];
    int64_t len = --c->heap_len;
    if (len == 0)
        return;
    double lt = c->h_t[len];
    int64_t ls = c->h_seq[len];
    uint64_t lp = c->h_pay[len];
    int64_t i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= len)
            break;
        int64_t right = child + 1;
        if (right < len && (c->h_t[right] < c->h_t[child]
                            || (c->h_t[right] == c->h_t[child]
                                && c->h_seq[right] < c->h_seq[child])))
            child = right;
        if (c->h_t[child] < lt
            || (c->h_t[child] == lt && c->h_seq[child] < ls)) {
            c->h_t[i] = c->h_t[child];
            c->h_seq[i] = c->h_seq[child];
            c->h_pay[i] = c->h_pay[child];
            i = child;
        } else {
            break;
        }
    }
    c->h_t[i] = lt;
    c->h_seq[i] = ls;
    c->h_pay[i] = lp;
}

/* The next uniform of host h's serve stream: one PCG64 step, the
 * XSL-RR output, then (u64 >> 11) * 2^-53 — numpy's next_double. */
static double serve_uniform(FleetCtx *c, int64_t h)
{
    u128 st = (((u128)c->pcg_hi[h]) << 64) | c->pcg_lo[h];
    u128 inc = (((u128)c->inc_hi[h]) << 64) | c->inc_lo[h];
    st = st * PCG_MULT + inc;
    uint64_t lo = (uint64_t)st;
    uint64_t hi = (uint64_t)(st >> 64);
    c->pcg_lo[h] = lo;
    c->pcg_hi[h] = hi;
    uint64_t value = hi ^ lo;
    unsigned rot = (unsigned)(hi >> 58);
    uint64_t out = (value >> rot) | (value << ((64u - rot) & 63u));
    return (double)(out >> 11) * (1.0 / 9007199254740992.0);
}

static void need_append(FleetCtx *c, int32_t wid)
{
    int64_t idx = c->need_head + c->need_count;
    if (idx >= c->need_cap)
        idx -= c->need_cap;
    c->need[idx] = wid;
    c->need_count++;
}

static void maybe_reissue(FleetCtx *c, int32_t wid)
{
    if ((int64_t)c->wu_nhold[wid] + c->wu_out[wid] < c->quorum
        && c->wu_issued[wid] < c->max_replicas)
        need_append(c, wid);
}

static void dispatch(FleetCtx *c, int64_t h, double now)
{
    int64_t wid = -1;
    int64_t nstash = 0;
    while (c->need_count > 0) {
        int32_t w = c->need[c->need_head];
        c->need_head++;
        if (c->need_head >= c->need_cap)
            c->need_head = 0;
        c->need_count--;
        if (c->wu_state[w] == 1 || c->wu_issued[w] >= c->max_replicas)
            continue;           /* entry is stale; drop it */
        const int32_t *hl = c->wu_hosts + (int64_t)w * c->max_replicas;
        int32_t cnt = c->wu_issued[w];
        int seen = 0;
        for (int32_t i = 0; i < cnt; i++) {
            if (hl[i] == (int32_t)h) {
                seen = 1;
                break;
            }
        }
        if (seen) {
            c->stash[nstash++] = w;
            continue;
        }
        wid = w;
        break;
    }
    /* prepend the stash in original order (deque.extendleft(reversed)) */
    for (int64_t i = nstash - 1; i >= 0; i--) {
        c->need_head--;
        if (c->need_head < 0)
            c->need_head += c->need_cap;
        c->need[c->need_head] = c->stash[i];
        c->need_count++;
    }
    if (wid < 0) {
        if (c->n_valid >= c->nwu)
            return;             /* everything validated; host retires */
        int32_t f = ++c->poll_fail[h];
        int64_t di = (int64_t)f - 1;
        if (di >= c->n_delays)
            di = c->n_delays - 1;
        double next_poll = now + c->delays[di];
        double limit = c->departure[h];
        if (c->horizon < limit)
            limit = c->horizon;
        if (next_poll < limit)
            heap_push(c, next_poll, c->seq++,
                      ((uint64_t)K_REQUEST << 32) | (uint64_t)h);
        return;
    }
    c->poll_fail[h] = 0;
    int64_t rid = c->n_rep;
    int32_t tcount = c->wu_tmo[wid];
    double deadline = now
        + c->base[h] * c->stretch[tcount < 8 ? tcount : 8];
    int64_t hi = c->soff[h + 1];
    int64_t cu = c->cur[h];
    while (cu + 1 < hi && c->fs[cu + 1] <= now)
        cu++;
    c->cur[h] = cu;
    double fin = 0.0;
    int has_fin = 0;
    double remaining = c->an[h];
    for (int64_t j = cu; j < hi; j++) {
        double s = c->fs[j];
        double e = c->fe[j];
        double lo = s > now ? s : now;
        if (lo >= e)
            continue;
        double span = e - lo;
        if (span >= remaining) {
            fin = lo + remaining;
            has_fin = 1;
            break;
        }
        remaining -= span;
    }
    c->r_wid[rid] = (int32_t)wid;
    c->r_host[rid] = (int32_t)h;
    c->r_dead[rid] = deadline;
    c->r_disp[rid] = now;
    c->r_flag[rid] = 0;
    c->n_rep++;
    c->wu_hosts[wid * c->max_replicas + c->wu_issued[wid]] = (int32_t)h;
    c->wu_issued[wid]++;
    c->wu_out[wid]++;
    if (c->need_count > c->need_peak)
        c->need_peak = c->need_count;
    if (has_fin && fin <= c->horizon) {
        heap_push(c, fin, c->seq++,
                  ((uint64_t)K_COMPLETE << 32) | (uint64_t)rid);
        if (deadline < fin)
            heap_push(c, deadline, c->seq++,
                      ((uint64_t)K_DEADLINE << 32) | (uint64_t)rid);
    } else if (deadline <= c->horizon) {
        heap_push(c, deadline, c->seq++,
                  ((uint64_t)K_DEADLINE << 32) | (uint64_t)rid);
    }
}

int fleet_run(FleetCtx *c)
{
    for (;;) {
        if (c->heap_len == 0)
            return ST_DONE;
        if (c->h_t[0] > c->horizon)
            return ST_DONE;
        /* preflight: every path through one event fits these margins */
        if (c->n_rep + 1 > c->rep_cap)
            return ST_GROW_REP;
        if (c->ret_count + 1 > c->ret_cap)
            return ST_GROW_RET;
        if (c->heap_len + 3 > c->heap_cap)
            return ST_GROW_HEAP;
        if (c->need_count + 2 > c->need_cap)
            return ST_GROW_NEED;
        double t;
        uint64_t pay;
        heap_pop(c, &t, &pay);
        int kind = (int)(pay >> 32);
        int64_t payload = (int64_t)(pay & 0xffffffffu);
        if (kind == K_COMPLETE) {
            int64_t rid = payload;
            int32_t wid = c->r_wid[rid];
            int64_t h = c->r_host[rid];
            double deadline = c->r_dead[rid];
            uint8_t fl = c->r_flag[rid];
            c->r_flag[rid] = fl | 2;
            int redispatch = c->n_valid < c->nwu;
            if (redispatch && c->heap_len > 0 && c->h_t[0] == t) {
                /* a tied event must process first: fall back to the
                 * classic re-poll push */
                heap_push(c, t, c->seq++,
                          ((uint64_t)K_REQUEST << 32) | (uint64_t)h);
                redispatch = 0;
            }
            double useful = c->an[h];
            if (fl || t > deadline) {
                c->stale_n++;
                c->stale_cpu += useful;
                c->waste[h] += useful;
                if (!fl) {
                    c->wu_out[wid]--;
                    c->r_flag[rid] = 3;
                }
                if (c->wu_state[wid] != 1)
                    maybe_reissue(c, wid);
            } else if (c->wu_state[wid] == 1) {
                c->wu_out[wid]--;
                c->red_n++;
                c->red_cpu += useful;
                c->waste[h] += useful;
            } else {
                c->wu_out[wid]--;
                c->ucur[h]++;
                if (serve_uniform(c, h) < c->err_rate) {
                    c->err_n++;
                    c->err_cpu += useful;
                    c->waste[h] += useful;
                    if (c->quorum == 1 && c->wu_state[wid] == 0)
                        c->wu_state[wid] = 2;
                    maybe_reissue(c, wid);
                } else {
                    c->ok_n++;
                    c->ret_wid[c->ret_count] = wid;
                    c->ret_host[c->ret_count] = (int32_t)h;
                    c->ret_cpu[c->ret_count] = useful;
                    c->ret_count++;
                    if (c->wu_state[wid] == 0) {
                        int64_t nh = c->wu_nhold[wid];
                        c->wu_holders[(int64_t)wid * c->quorum + nh] =
                            (int32_t)h;
                        nh++;
                        c->wu_nhold[wid] = (uint8_t)nh;
                        if (nh >= c->quorum) {
                            c->wu_state[wid] = 1;
                            c->wu_validated[wid] = t;
                            c->n_valid++;
                        } else {
                            maybe_reissue(c, wid);
                        }
                    } else {
                        /* bad-locked: the match can never validate */
                        maybe_reissue(c, wid);
                    }
                }
            }
            if (redispatch)
                dispatch(c, h, t);
        } else if (kind == K_REQUEST) {
            dispatch(c, payload, t);
        } else {
            int64_t rid = payload;
            if (!c->r_flag[rid]) {
                c->r_flag[rid] = 1;
                int32_t wid = c->r_wid[rid];
                c->wu_out[wid]--;
                if (c->wu_state[wid] != 1) {
                    c->wu_tmo[wid]++;
                    c->tmo_n++;
                    maybe_reissue(c, wid);
                }
            }
        }
    }
}
