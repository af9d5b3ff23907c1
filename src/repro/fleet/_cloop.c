/* The compiled fleet kernels, driven by cloop.py.
 *
 * Not a translation unit of its own: simcore/_ccore.c includes this file
 * after the scheduler's pass and the frame path, so repro/ckernel.py
 * builds it into the one extension module (repro.simcore._ccore) whose
 * entry points cloop.py calls.
 *
 * Three kernels share this file and its PCG64 and SHA-256 primitives:
 *
 * fleet_sample -- the host-column sampler.  For each host of a build
 * shard, in host order, it repeats the numpy build of
 * repro/fleet/columns.py draw for draw: fork_seed (SHA-256 of
 * "{root}/{name}", first 8 bytes little-endian), numpy's SeedSequence
 * pool mix, PCG64 seeding and stepping, the 256-layer ziggurat normal
 * and exponential samplers (tail and wedge paths through libm log1p and
 * exp, as numpy's Generator does), the phase draw, the availability
 * clamp and the on/off renewal loop.  Each host's sessions are written
 * contiguously into a flat CSR buffer.
 *
 * fleet_run -- the event loop of fault-free runs, a line-for-line
 * transliteration of the fault-free branches of the pure-Python loop in
 * repro/fleet/server.py (`FleetServer._fast_loop_python`; the recovery
 * machine of fault storms is not carried here) -- same events, same
 * (time, seq) heap order.  Its layout is built for memory latency: a
 * 4-ary heap whose nodes carry the event's host (and replica and unit
 * ids), so a popped event addresses everything it touches without a
 * dependent load; one 128-byte record per host (HostRec) in place of a
 * dozen per-host arrays, caching the session at the host's cursor; and
 * a prefetch of the next event's record and replica slots after every
 * pop.  It keeps only what it reads: no per-replica deadline, a unit's
 * hosts found through its replica chain (wu_last, r_prev, r_host), and
 * the untouched fresh range of the need queue as a cursor behind one
 * FRESH entry.  fleet_init_hosts fills the records, serve lanes
 * included.
 *
 * fleet_draw_uniforms -- a batch of repro.faults.plan._draw uniforms for
 * consecutive integer keys, which fault storms turn into the pre-drawn
 * fire masks of FleetServer._fast_loop_python.  It draws decisions only;
 * the storm event loop itself stays in Python.
 *
 * All of them keep every float operation of their Python twins in the same
 * order, so the arrays they fill are byte-identical to the Python
 * oracles'.  Compile with `-ffp-contract=off` (no FMA contraction) so
 * every double op rounds exactly like CPython's and numpy's; on x86-64
 * all of them use SSE2 doubles.
 *
 * All memory is owned by Python (numpy arrays).  The event loop and the
 * sampler are context types (FleetRun, FleetSample at the end of this
 * file) that hold a buffer-protocol view of every array they point
 * into; each view's item size, item kind and contiguity are checked
 * when it is bound, and its length against the run's sizes before every
 * run, so a kernel never writes past a buffer.  When a buffer would
 * overflow, a kernel returns a pause status *before* consuming the event
 * (or, for the sampler, before finishing the host); cloop.py grows the
 * array, rebinds it (grow), and calls run() again -- the run resumes
 * exactly where it stopped.
 *
 * The serve-stream error uniforms of fleet_run are drawn here, not
 * pre-drawn: each host's PCG64 lane (XSL-RR output, next_double) is
 * seeded with the sampler's SeedSequence port and stepped on demand
 * through unsigned __int128 arithmetic.  A compiler without that type
 * fails the build.
 *
 * HostRec and HeapNode mirror numpy structured dtypes in cloop.py;
 * host_rec_layout/heap_node_layout export sizeof and every offsetof so
 * the test suite can assert that.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

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

/* The need-ring entry that stands for the rest of the fresh range */
#define FRESH (-1)

#define K_REQUEST 0
#define K_DEADLINE 1
#define K_COMPLETE 2

/* One host's kernel state: one 128-byte record on a 128-byte boundary
 * (an adjacent pair of cache lines, which an event on the host loads
 * together) in place of a dozen per-host arrays.  The session at the
 * cursor is cached here, so a dispatch whose unit fits it never touches
 * the CSR session arrays. */
typedef struct {
    /* the serve-stream PCG64 lane as 64-bit halves; inc is read-only */
    uint64_t pcg_lo, pcg_hi, inc_lo, inc_hi;
    double an;                  /* active seconds per unit (read-only) */
    double waste;
    int64_t cur;                /* monotone session cursor */
    int64_t send;               /* soff[h + 1]: end of the sessions (ro) */
    double base, departure;     /* read-only */
    int32_t poll_fail, ucur;
    /* fs[cur], fe[cur] and fs[cur + 1] (+inf past the last session) */
    double cur_start, cur_end, next_start;
    int64_t pad[2];
} HostRec;

/* One event of the 4-ary heap: its time sits at the same index of the
 * parallel heap_t array, everything else in this 24-byte node -- the
 * seq tie-break, the event's host, and for replica events the replica
 * and unit ids.  The sift-down compares times only (seq on exact ties),
 * so its dependent chain walks the compact time array; a child's node
 * is read only to move it. */
typedef struct {
    int64_t seq;
    int32_t host;
    int32_t kind;
    uint32_t rid;               /* K_COMPLETE / K_DEADLINE only */
    int32_t wid;                /* K_COMPLETE / K_DEADLINE only */
} HeapNode;

typedef struct {
    /* sizes / params */
    int64_t n, nwu, quorum, max_replicas;
    double horizon, err_rate;
    int64_t n_delays;
    /* read-only session trace (CSR, cut by HostRec.cur/send) */
    const double *fs, *fe;
    const double *stretch, *delays;
    /* per-host records */
    HostRec *hosts;
    /* work-unit state */
    uint8_t *wu_state;          /* 0 open, 1 validated, 2 bad-locked */
    double *wu_validated;
    int32_t *wu_issued, *wu_out, *wu_tmo, *wu_holders;
    uint8_t *wu_nhold;
    int32_t *wu_last;           /* the unit's newest replica, -1: none */
    /* replicas (growable) */
    int32_t *r_host;
    int32_t *r_prev;            /* the unit's previous replica, -1: none */
    double *r_disp;
    uint8_t *r_flag;            /* bit0 timed out, bit1 completed */
    int64_t rep_cap;
    /* ok returns in delivery order (growable) */
    int32_t *ret_wid, *ret_host;
    double *ret_cpu;
    int64_t ret_cap;
    /* need queue: a ring buffer (growable) whose FRESH entry stands for
     * the untouched fresh range -- every unit quorum times, in order --
     * as a cursor, fresh entry k being unit k / quorum; the stash is
     * scratch of equal capacity */
    int32_t *need;
    int64_t need_head, need_count, need_cap;
    int32_t *stash;
    int64_t fresh_next, fresh_end;
    /* 4-ary event heap ordered by (t, seq): times and nodes (growable) */
    double *heap_t;
    HeapNode *heap;
    int64_t heap_len, heap_cap;
    /* scalars */
    int64_t seq, n_valid, n_rep, ret_count;
    int64_t ok_n, err_n, stale_n, tmo_n, red_n;
    double err_cpu, stale_cpu, red_cpu;
    int64_t need_peak;          /* longest need queue after a dispatch */
} FleetCtx;

static void fleet_heap_push(FleetCtx *c, double t, int64_t seq, int64_t h,
                            int kind, int64_t rid, int64_t wid)
{
    double *ht = c->heap_t;
    HeapNode *hp = c->heap;
    int64_t i = c->heap_len++;
    while (i > 0) {
        int64_t p = (i - 1) >> 2;
        if (ht[p] < t || (ht[p] == t && hp[p].seq < seq))
            break;
        ht[i] = ht[p];
        hp[i] = hp[p];
        i = p;
    }
    ht[i] = t;
    hp[i].seq = seq;
    hp[i].host = (int32_t)h;
    hp[i].kind = kind;
    hp[i].rid = (uint32_t)rid;
    hp[i].wid = (int32_t)wid;
}

static void fleet_heap_pop(FleetCtx *c, double *t, HeapNode *top)
{
    double *ht = c->heap_t;
    HeapNode *hp = c->heap;
    *t = ht[0];
    *top = hp[0];
    int64_t len = --c->heap_len;
    if (len == 0)
        return;
    double lt = ht[len];
    HeapNode last = hp[len];
    int64_t i = 0;
    for (;;) {
        int64_t first = 4 * i + 1;
        if (first >= len)
            break;
        int64_t end = first + 4 < len ? first + 4 : len;
        int64_t best = first;
        double bt = ht[first];
        for (int64_t j = first + 1; j < end; j++) {
            double tj = ht[j];
            if (tj < bt || (tj == bt && hp[j].seq < hp[best].seq)) {
                best = j;
                bt = tj;
            }
        }
        if (!(bt < lt || (bt == lt && hp[best].seq < last.seq)))
            break;
        ht[i] = bt;
        hp[i] = hp[best];
        i = best;
    }
    ht[i] = lt;
    hp[i] = last;
}

/* Start loading what the next event reads while this one runs: its host
 * record and, for a replica event, its replica slots and unit state --
 * all addressed straight from the node, with no load in between. */
static inline void prefetch_next(const FleetCtx *c)
{
    const HeapNode *top = c->heap;
    if (top->kind != K_DEADLINE) {
        const char *rec = (const char *)(c->hosts + top->host);
        __builtin_prefetch(rec, 1);
        __builtin_prefetch(rec + 64, 1);
    }
    if (top->kind != K_REQUEST) {
        __builtin_prefetch(c->r_flag + top->rid, 1);
        __builtin_prefetch(c->wu_state + top->wid, 1);
        __builtin_prefetch(c->wu_out + top->wid, 1);
        __builtin_prefetch(c->wu_nhold + top->wid, 1);
        __builtin_prefetch(c->wu_holders + top->wid * c->quorum, 1);
    }
}

/* PCG64's XSL-RR output of a freshly stepped 128-bit state. */
static inline uint64_t xsl_rr(u128 st)
{
    uint64_t lo = (uint64_t)st;
    uint64_t hi = (uint64_t)(st >> 64);
    uint64_t value = hi ^ lo;
    unsigned rot = (unsigned)(hi >> 58);
    return (value >> rot) | (value << ((64u - rot) & 63u));
}

/* numpy's next_double: (u64 >> 11) * 2^-53 */
#define D53 (1.0 / 9007199254740992.0)

/* The next uniform of a host's serve stream: one PCG64 step, the
 * XSL-RR output, then next_double. */
static double serve_uniform(HostRec *hr)
{
    u128 st = (((u128)hr->pcg_hi) << 64) | hr->pcg_lo;
    u128 inc = (((u128)hr->inc_hi) << 64) | hr->inc_lo;
    st = st * PCG_MULT + inc;
    hr->pcg_lo = (uint64_t)st;
    hr->pcg_hi = (uint64_t)(st >> 64);
    return (double)(xsl_rr(st) >> 11) * D53;
}

static void need_append(FleetCtx *c, int32_t wid)
{
    int64_t idx = c->need_head + c->need_count;
    if (idx >= c->need_cap)
        idx -= c->need_cap;
    c->need[idx] = wid;
    c->need_count++;
}

/* Pop the head of the need queue.  The FRESH entry yields the next
 * fresh unit and stays at the head until its range is spent. */
static int32_t need_pop(FleetCtx *c)
{
    int32_t w = c->need[c->need_head];
    if (w == FRESH) {
        w = (int32_t)(c->fresh_next++ / c->quorum);
        if (c->fresh_next < c->fresh_end)
            return w;
    }
    c->need_head++;
    if (c->need_head >= c->need_cap)
        c->need_head = 0;
    c->need_count--;
    return w;
}

/* The need queue's length as the Python loop's deque counts it. */
static inline int64_t need_len(const FleetCtx *c)
{
    int64_t fresh = c->fresh_end - c->fresh_next;
    return c->need_count + (fresh > 0 ? fresh - 1 : 0);
}

static void maybe_reissue(FleetCtx *c, int32_t wid)
{
    if ((int64_t)c->wu_nhold[wid] + c->wu_out[wid] < c->quorum
        && c->wu_issued[wid] < c->max_replicas)
        need_append(c, wid);
}

static void fleet_dispatch(FleetCtx *c, int64_t h, double now)
{
    HostRec *hr = c->hosts + h;
    int64_t wid = -1;
    int64_t nstash = 0;
    /* the stash fits in need_cap: the growth margin keeps need_count <=
     * need_cap - quorum here, and besides the ring's entries it takes at
     * most quorum - 1 fresh ones (a unit is held only once the cursor
     * passed its first fresh entry, so those are the rest of one unit's,
     * and the FRESH entry itself is never stashed) */
    while (c->need_count > 0) {
        int32_t w = need_pop(c);
        if (c->wu_state[w] == 1 || c->wu_issued[w] >= c->max_replicas)
            continue;           /* entry is stale; drop it */
        /* the unit's replicas, newest first, through the rid chain */
        int seen = 0;
        for (int32_t r = c->wu_last[w]; r >= 0; r = c->r_prev[r]) {
            if (c->r_host[r] == (int32_t)h) {
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
        int32_t f = ++hr->poll_fail;
        int64_t di = (int64_t)f - 1;
        if (di >= c->n_delays)
            di = c->n_delays - 1;
        double next_poll = now + c->delays[di];
        double limit = hr->departure;
        if (c->horizon < limit)
            limit = c->horizon;
        if (next_poll < limit)
            fleet_heap_push(c, next_poll, c->seq++, h, K_REQUEST, 0, 0);
        return;
    }
    hr->poll_fail = 0;
    int64_t rid = c->n_rep;
    int32_t tcount = c->wu_tmo[wid];
    double deadline = now
        + hr->base * c->stretch[tcount < 8 ? tcount : 8];
    int64_t hi = hr->send;
    int64_t cu = hr->cur;
    if (hr->next_start <= now) {
        /* the cursor moves past every session started by now, and the
         * cached cursor session follows it */
        cu++;
        while (cu + 1 < hi && c->fs[cu + 1] <= now)
            cu++;
        hr->cur = cu;
        hr->cur_start = c->fs[cu];
        hr->cur_end = c->fe[cu];
        hr->next_start = cu + 1 < hi ? c->fs[cu + 1] : INFINITY;
    }
    double fin = 0.0;
    int has_fin = 0;
    double remaining = hr->an;
    double s = hr->cur_start;
    double e = hr->cur_end;
    for (int64_t j = cu;;) {
        double lo = s > now ? s : now;
        if (lo < e) {
            double span = e - lo;
            if (span >= remaining) {
                fin = lo + remaining;
                has_fin = 1;
                break;
            }
            remaining -= span;
        }
        if (++j >= hi)
            break;
        s = c->fs[j];
        e = c->fe[j];
    }
    c->r_host[rid] = (int32_t)h;
    c->r_prev[rid] = c->wu_last[wid];
    c->wu_last[wid] = (int32_t)rid;
    c->r_disp[rid] = now;
    c->r_flag[rid] = 0;
    c->n_rep++;
    c->wu_issued[wid]++;
    c->wu_out[wid]++;
    if (need_len(c) > c->need_peak)
        c->need_peak = need_len(c);
    if (has_fin && fin <= c->horizon) {
        fleet_heap_push(c, fin, c->seq++, h, K_COMPLETE, rid, wid);
        if (deadline < fin)
            fleet_heap_push(c, deadline, c->seq++, h, K_DEADLINE, rid, wid);
    } else if (deadline <= c->horizon) {
        fleet_heap_push(c, deadline, c->seq++, h, K_DEADLINE, rid, wid);
    }
}

static int fleet_run(FleetCtx *c)
{
    for (;;) {
        if (c->heap_len == 0)
            return ST_DONE;
        if (c->heap_t[0] > c->horizon)
            return ST_DONE;
        /* preflight: every path through one event fits these margins */
        if (c->n_rep + 1 > c->rep_cap)
            return ST_GROW_REP;
        if (c->ret_count + 1 > c->ret_cap)
            return ST_GROW_RET;
        if (c->heap_len + 3 > c->heap_cap)
            return ST_GROW_HEAP;
        /* a dispatch may put quorum - 1 fresh entries back in the
         * ring, a reissue appends one */
        if (c->need_count + c->quorum + 1 > c->need_cap)
            return ST_GROW_NEED;
        HeapNode ev;
        double t;
        fleet_heap_pop(c, &t, &ev);
        if (c->heap_len > 0)
            prefetch_next(c);
        if (ev.kind == K_COMPLETE) {
            int64_t rid = ev.rid;
            int32_t wid = ev.wid;
            int64_t h = ev.host;
            HostRec *hr = c->hosts + h;
            uint8_t fl = c->r_flag[rid];
            c->r_flag[rid] = fl | 2;
            int redispatch = c->n_valid < c->nwu;
            if (redispatch && c->heap_len > 0 && c->heap_t[0] == t) {
                /* a tied event must process first: fall back to the
                 * classic re-poll push */
                fleet_heap_push(c, t, c->seq++, h, K_REQUEST, 0, 0);
                redispatch = 0;
            }
            double useful = hr->an;
            /* late (t > deadline) implies fl: dispatch pushed this
             * replica's K_DEADLINE whenever deadline < fin <= horizon,
             * and it popped strictly earlier and set bit 0 */
            if (fl) {
                c->stale_n++;
                c->stale_cpu += useful;
                hr->waste += useful;
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
                hr->waste += useful;
            } else {
                c->wu_out[wid]--;
                hr->ucur++;
                if (serve_uniform(hr) < c->err_rate) {
                    c->err_n++;
                    c->err_cpu += useful;
                    hr->waste += useful;
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
                fleet_dispatch(c, h, t);
        } else if (ev.kind == K_REQUEST) {
            fleet_dispatch(c, ev.host, t);
        } else {
            int64_t rid = ev.rid;
            if (!c->r_flag[rid]) {
                c->r_flag[rid] = 1;
                int32_t wid = ev.wid;
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

/* ---- the host-column sampler --------------------------------------- */

#define ST_GROW_SESS 5

/* Spawn-key rows of SampleCtx.spawn: the named streams of one host. */
enum { S_SPEED, S_AVAIL, S_DEPARTURE, S_PHASE, S_ON, S_OFF, N_STREAMS };

typedef struct {
    /* host range [start, stop); next is the resume point */
    int64_t start, stop, next;
    /* fork root "{seed}/host-" as bytes (any Python int seed) */
    const uint8_t *root;
    int64_t root_len;
    int64_t draw_speed;         /* 0 when host_gflops_sigma == 0 */
    double avail_mean, avail_spread, avail_floor, avail_ceil;
    double horizon, departure_mean, session_mean;
    const uint32_t *spawn;      /* N_STREAMS x 4 spawn-key words */
    /* numpy's ziggurat tables (repro/fleet/_zigdata.py) */
    const uint64_t *ki_nor, *ke_exp;
    const double *wi_nor, *fi_nor, *we_exp, *fe_exp;
    double nor_r, nor_inv_r, exp_r;
    /* per-host outputs, indexed by host - start */
    double *speed_z, *avail, *departure;
    uint64_t *serve;
    int64_t *count;
    /* every host's sessions, contiguous in host order (growable) */
    double *s_starts, *s_ends;
    int64_t s_len, s_cap;
} SampleCtx;

/* -- SHA-256 (FIPS 180-4), just enough for fork_seed -- */

typedef struct {
    uint32_t h[8];
    uint8_t buf[64];
    uint64_t len;               /* bytes absorbed so far */
} Sha256;

static const uint32_t SHA_K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

#define ROTR32(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static void sha_block(uint32_t h[8], const uint8_t *p)
{
    uint32_t w[64];
    for (int i = 0; i < 16; i++)
        w[i] = ((uint32_t)p[4 * i] << 24) | ((uint32_t)p[4 * i + 1] << 16)
               | ((uint32_t)p[4 * i + 2] << 8) | (uint32_t)p[4 * i + 3];
    for (int i = 16; i < 64; i++) {
        uint32_t s0 = ROTR32(w[i - 15], 7) ^ ROTR32(w[i - 15], 18)
                      ^ (w[i - 15] >> 3);
        uint32_t s1 = ROTR32(w[i - 2], 17) ^ ROTR32(w[i - 2], 19)
                      ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int i = 0; i < 64; i++) {
        uint32_t t1 = hh + (ROTR32(e, 6) ^ ROTR32(e, 11) ^ ROTR32(e, 25))
                      + ((e & f) ^ (~e & g)) + SHA_K[i] + w[i];
        uint32_t t2 = (ROTR32(a, 2) ^ ROTR32(a, 13) ^ ROTR32(a, 22))
                      + ((a & b) ^ (a & c) ^ (b & c));
        hh = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
    h[5] += f;
    h[6] += g;
    h[7] += hh;
}

static void sha_init(Sha256 *s)
{
    static const uint32_t iv[8] = {
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
    };
    memcpy(s->h, iv, sizeof iv);
    s->len = 0;
}

static void sha_update(Sha256 *s, const uint8_t *data, size_t n)
{
    size_t fill = (size_t)(s->len & 63);
    s->len += n;
    if (fill) {
        size_t take = 64 - fill < n ? 64 - fill : n;
        memcpy(s->buf + fill, data, take);
        data += take;
        n -= take;
        if (fill + take < 64)
            return;
        sha_block(s->h, s->buf);
    }
    for (; n >= 64; data += 64, n -= 64)
        sha_block(s->h, data);
    memcpy(s->buf, data, n);
}

static void sha_final(Sha256 *s, uint8_t out[32])
{
    uint64_t bits = s->len * 8;
    size_t fill = (size_t)(s->len & 63);
    s->buf[fill++] = 0x80;
    if (fill > 56) {
        memset(s->buf + fill, 0, 64 - fill);
        sha_block(s->h, s->buf);
        fill = 0;
    }
    memset(s->buf + fill, 0, 56 - fill);
    for (int i = 0; i < 8; i++)
        s->buf[56 + i] = (uint8_t)(bits >> (56 - 8 * i));
    sha_block(s->h, s->buf);
    for (int i = 0; i < 8; i++) {
        out[4 * i] = (uint8_t)(s->h[i] >> 24);
        out[4 * i + 1] = (uint8_t)(s->h[i] >> 16);
        out[4 * i + 2] = (uint8_t)(s->h[i] >> 8);
        out[4 * i + 3] = (uint8_t)s->h[i];
    }
}

/* Decimal digits of v into buf (no terminator); returns the length. */
static size_t format_u64(uint64_t v, char *buf)
{
    char tmp[20];
    size_t n = 0;
    do {
        tmp[n++] = (char)('0' + v % 10);
        v /= 10;
    } while (v);
    for (size_t i = 0; i < n; i++)
        buf[i] = tmp[n - 1 - i];
    return n;
}

/* fork_seed: the first 8 bytes, little-endian, of SHA-256(prefix||tail). */
static uint64_t fork_seed(const uint8_t *prefix, size_t plen,
                          const char *tail, size_t tlen)
{
    Sha256 s;
    uint8_t digest[32];
    sha_init(&s);
    sha_update(&s, prefix, plen);
    sha_update(&s, (const uint8_t *)tail, tlen);
    sha_final(&s, digest);
    uint64_t v = 0;
    for (int i = 7; i >= 0; i--)
        v = (v << 8) | digest[i];
    return v;
}

/* fork_seed(parent, name) for a uint64 parent: "{parent}/{name}". */
static uint64_t fork_child(uint64_t parent, const char *name)
{
    char buf[40];
    size_t n = format_u64(parent, buf);
    buf[n++] = '/';
    size_t m = strlen(name);
    memcpy(buf + n, name, m);
    return fork_seed((const uint8_t *)buf, n + m, "", 0);
}

/* -- bulk fault draws -- */

/* Room for the whole payload of one draw: prefix, key digits, suffix. */
#define DRAW_BUF 128

/* repro.faults.plan._draw for the keys first..first+count-1: the first 8
 * bytes, little-endian, of SHA-256(prefix || str(key) || suffix), over
 * 2**64, into out[0:count].  Returns 0, or -1 (out untouched) when a
 * payload would not fit DRAW_BUF or the key range is invalid; the caller
 * then draws through _draw itself. */
static int draw_uniforms(const uint8_t *prefix, int64_t plen,
                         const uint8_t *suffix, int64_t slen,
                         int64_t first, int64_t count, double *out)
{
    uint8_t buf[DRAW_BUF];
    if (plen < 0 || slen < 0 || plen + 20 + slen > DRAW_BUF
            || first < 0 || count < 0 || first > INT64_MAX - count)
        return -1;
    memcpy(buf, prefix, (size_t)plen);
    for (int64_t i = 0; i < count; i++) {
        size_t n = (size_t)plen
                   + format_u64((uint64_t)(first + i), (char *)buf + plen);
        memcpy(buf + n, suffix, (size_t)slen);
        uint64_t word = fork_seed(buf, n + (size_t)slen, "", 0);
        out[i] = (double)word / 18446744073709551616.0;
    }
    return 0;
}

/* -- numpy's SeedSequence -> PCG64 seeding -- */

#define SS_INIT_A 0x43b0d7e5u
#define SS_MULT_A 0x931e8875u
#define SS_INIT_B 0x8b51f9ddu
#define SS_MULT_B 0x58f38dedu
#define SS_MIX_L 0xca01f9ddu
#define SS_MIX_R 0x4973f715u

typedef struct {
    u128 state, inc;
} Pcg;

static inline uint32_t ss_hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= SS_MULT_A;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static inline uint32_t ss_mix(uint32_t x, uint32_t y)
{
    uint32_t result = x * SS_MIX_L - y * SS_MIX_R;
    return result ^ (result >> 16);
}

/* RngStreams(entropy).stream(name) with name's spawn-key words. */
static Pcg pcg_seeded(uint64_t entropy, const uint32_t spawn[4])
{
    uint32_t assembled[8] = {
        (uint32_t)entropy, (uint32_t)(entropy >> 32), 0, 0,
        spawn[0], spawn[1], spawn[2], spawn[3],
    };
    uint32_t pool[4];
    uint32_t hc = SS_INIT_A;
    for (int i = 0; i < 4; i++)
        pool[i] = ss_hashmix(assembled[i], &hc);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = ss_mix(pool[dst], ss_hashmix(pool[src], &hc));
    for (int src = 4; src < 8; src++)
        for (int dst = 0; dst < 4; dst++)
            pool[dst] = ss_mix(pool[dst], ss_hashmix(assembled[src], &hc));
    uint32_t out32[8];
    uint32_t hb = SS_INIT_B;
    for (int i = 0; i < 8; i++) {
        uint32_t v = pool[i % 4] ^ hb;
        hb *= SS_MULT_B;
        v *= hb;
        out32[i] = v ^ (v >> 16);
    }
    uint64_t w[4];
    for (int i = 0; i < 4; i++)
        w[i] = (uint64_t)out32[2 * i] | ((uint64_t)out32[2 * i + 1] << 32);
    Pcg p;
    p.inc = (((((u128)w[2]) << 64) | w[3]) << 1) | 1;
    u128 seed = (((u128)w[0]) << 64) | w[1];
    p.state = (p.inc + seed) * PCG_MULT + p.inc;
    return p;
}

/* Fill fleet_run's n host records from the host columns.  The serve
 * lane of host h is RngStreams(seeds[h]).stream(name) for name's
 * spawn-key words; the cursor starts at the host's first session.  A
 * host without sessions never gets an event, so its cursor cache is
 * left at zero. */
static void init_hosts(HostRec *hosts, int64_t n, const int64_t *soff,
                       const double *fs, const double *fe, const double *an,
                       const double *base, const double *departure,
                       const uint64_t *seeds, const uint32_t spawn[4])
{
    for (int64_t h = 0; h < n; h++) {
        HostRec *hr = hosts + h;
        memset(hr, 0, sizeof *hr);
        Pcg p = pcg_seeded(seeds[h], spawn);
        hr->pcg_lo = (uint64_t)p.state;
        hr->pcg_hi = (uint64_t)(p.state >> 64);
        hr->inc_lo = (uint64_t)p.inc;
        hr->inc_hi = (uint64_t)(p.inc >> 64);
        hr->an = an[h];
        hr->base = base[h];
        hr->departure = departure[h];
        int64_t first = soff[h];
        hr->cur = first;
        hr->send = soff[h + 1];
        if (first < hr->send) {
            hr->cur_start = fs[first];
            hr->cur_end = fe[first];
        }
        hr->next_start = first + 1 < hr->send ? fs[first + 1] : INFINITY;
    }
}

static inline uint64_t pcg_next(Pcg *p)
{
    p->state = p->state * PCG_MULT + p->inc;
    return xsl_rr(p->state);
}

static inline double pcg_double(Pcg *p)
{
    return (double)(pcg_next(p) >> 11) * D53;
}

/* numpy's random_standard_normal: the 256-layer ziggurat. */
static double std_normal(const SampleCtx *c, Pcg *p)
{
    for (;;) {
        uint64_t r = pcg_next(p);
        int idx = (int)(r & 0xff);
        r >>= 8;
        int sign = (int)(r & 0x1);
        uint64_t rabs = (r >> 1) & 0x000fffffffffffffULL;
        double x = (double)rabs * c->wi_nor[idx];
        if (rabs < c->ki_nor[idx])
            return sign ? -x : x;
        if (idx == 0) {
            /* the tail: its sign is bit 8 of rabs, as in numpy */
            for (;;) {
                double xx = -c->nor_inv_r * log1p(-pcg_double(p));
                double yy = -log1p(-pcg_double(p));
                if (yy + yy > xx * xx)
                    return ((rabs >> 8) & 0x1) ? -(c->nor_r + xx)
                                               : c->nor_r + xx;
            }
        }
        if ((c->fi_nor[idx - 1] - c->fi_nor[idx]) * pcg_double(p)
                + c->fi_nor[idx] < exp(-0.5 * x * x))
            return sign ? -x : x;
    }
}

/* numpy's random_standard_exponential: the 256-layer ziggurat. */
static double std_exp(const SampleCtx *c, Pcg *p)
{
    for (;;) {
        uint64_t ri = pcg_next(p) >> 3;
        int idx = (int)(ri & 0xff);
        ri >>= 8;
        double x = (double)ri * c->we_exp[idx];
        if (ri < c->ke_exp[idx])
            return x;
        if (idx == 0)
            return c->exp_r - log1p(-pcg_double(p));
        if ((c->fe_exp[idx - 1] - c->fe_exp[idx]) * pcg_double(p)
                + c->fe_exp[idx] < exp(-x))
            return x;
    }
}

/* Sample hosts next..stop-1 of the shard.  Returns ST_GROW_SESS, with
 * the unfinished host's sessions rolled back, when the session buffer
 * is full; the host is then redrawn from its seed on resume. */
static int fleet_sample(SampleCtx *c)
{
    char digits[20];
    for (; c->next < c->stop; c->next++) {
        int64_t k = c->next - c->start;
        int64_t mark = c->s_len;
        size_t nd = format_u64((uint64_t)c->next, digits);
        uint64_t child = fork_seed(c->root, (size_t)c->root_len,
                                   digits, nd);
        uint64_t trace = fork_child(child, "trace");
        c->serve[k] = fork_child(child, "serve");

        if (c->draw_speed) {
            Pcg sp = pcg_seeded(child, c->spawn + 4 * S_SPEED);
            c->speed_z[k] = std_normal(c, &sp);
        }
        Pcg av = pcg_seeded(child, c->spawn + 4 * S_AVAIL);
        double a = c->avail_mean + c->avail_spread * std_normal(c, &av);
        a = c->avail_floor > a ? c->avail_floor : a;
        a = c->avail_ceil < a ? c->avail_ceil : a;
        c->avail[k] = a;

        Pcg dep = pcg_seeded(trace, c->spawn + 4 * S_DEPARTURE);
        double departure = std_exp(c, &dep) * c->departure_mean;
        c->departure[k] = departure;
        double eow = departure < c->horizon ? departure : c->horizon;
        Pcg ph = pcg_seeded(trace, c->spawn + 4 * S_PHASE);
        int on = pcg_double(&ph) < a;
        double off_mean = c->session_mean * (1.0 - a) / a;
        Pcg on_pcg = pcg_seeded(trace, c->spawn + 4 * S_ON);
        Pcg off_pcg = pcg_seeded(trace, c->spawn + 4 * S_OFF);
        double t = 0.0;
        if (!on)
            t = std_exp(c, &off_pcg) * off_mean;
        while (t < eow) {
            if (c->s_len >= c->s_cap) {
                c->s_len = mark;
                return ST_GROW_SESS;
            }
            double length = std_exp(c, &on_pcg) * c->session_mean;
            double t_next = t + length;
            c->s_starts[c->s_len] = t;
            c->s_ends[c->s_len] = t_next < eow ? t_next : eow;
            c->s_len++;
            t = t_next + std_exp(c, &off_pcg) * off_mean;
        }
        c->count[k] = c->s_len - mark;
    }
    return ST_DONE;
}

/* ---- the Python entry points ---------------------------------------- */

/* One array an entry point reads or writes.  code is the struct code of
 * an item ('d' double, 'q' int64, 'i' int32, 'B' uint8, 'Q' uint64, 'I'
 * uint32), or 'T' for a record of itemsize bytes (a numpy structured
 * dtype, whose format string is not read). */
typedef struct {
    const char *name;
    Py_ssize_t field;           /* offsetof its pointer in the context */
    char code;
    Py_ssize_t itemsize;
    int writable;
} BufSpec;

/* Whether a buffer's format names items of code's kind: float, signed
 * or unsigned integer (the item size is checked apart, so 'l' stands
 * for whichever width its size says). */
static int
buf_format_ok(const char *format, char code)
{
    if (code == 'T')
        return 1;
    if (format == NULL)
        format = "B";
    if (*format == '@' || *format == '=' || *format == '<')
        format++;
    if (format[0] == '\0' || format[1] != '\0')
        return 0;
    char f = format[0];
    switch (code) {
    case 'q':
    case 'i':
        return f == 'q' || f == 'l' || f == 'i';
    case 'Q':
    case 'I':
        return f == 'Q' || f == 'L' || f == 'I';
    default:
        return f == code;
    }
}

/* A view of obj as spec's items into *view, or -1 with an error set (the
 * view left unbound): C contiguous (the exporter refuses otherwise),
 * writable when the kernel writes it, of spec's item size and kind. */
static int
buf_get(PyObject *obj, const BufSpec *spec, Py_buffer *view)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT;
    if (spec->writable)
        flags |= PyBUF_WRITABLE;
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->itemsize != spec->itemsize
            || !buf_format_ok(view->format, spec->code)) {
        PyErr_Format(PyExc_ValueError,
                     "%s: items of %zd bytes (format %s), the kernel reads "
                     "%zd-byte '%c' items", spec->name, view->itemsize,
                     view->format ? view->format : "B", spec->itemsize,
                     spec->code);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* Items in a view (0 for an unbound one). */
static Py_ssize_t
buf_items(const Py_buffer *view)
{
    return view->obj != NULL ? view->len / view->itemsize : 0;
}

/* Raise unless views[i] is bound and holds at least need items. */
static int
buf_need(const BufSpec *specs, const Py_buffer *views, int i, int64_t need)
{
    if (views[i].obj == NULL) {
        PyErr_Format(PyExc_ValueError, "%s is not bound", specs[i].name);
        return -1;
    }
    if (buf_items(&views[i]) < need) {
        PyErr_Format(PyExc_ValueError, "%s: %zd items, the run needs %lld",
                     specs[i].name, buf_items(&views[i]), (long long)need);
        return -1;
    }
    return 0;
}

/* The shortest length of views[first..last]: a growable group's
 * capacity. */
static int64_t
buf_cap(const Py_buffer *views, int first, int last)
{
    Py_ssize_t cap = buf_items(&views[first]);
    for (int i = first + 1; i <= last; i++)
        if (buf_items(&views[i]) < cap)
            cap = buf_items(&views[i]);
    return cap;
}

/* Bind each keyword of kwargs that names a buffer of specs: its view
 * replaces the old one and its pointer is written into the context at
 * ctx.  Other keywords are set as attributes (the scalar members) when
 * scalars, refused otherwise. */
static int
ctx_bind(PyObject *self, const BufSpec *specs, Py_buffer *views, char *ctx,
         PyObject *args, PyObject *kwargs, int scalars)
{
    if (PyTuple_GET_SIZE(args) != 0) {
        PyErr_Format(PyExc_TypeError, "%s takes keyword arguments only",
                     Py_TYPE(self)->tp_name);
        return -1;
    }
    PyObject *key, *value;
    Py_ssize_t pos = 0;
    while (kwargs != NULL && PyDict_Next(kwargs, &pos, &key, &value)) {
        const char *name = PyUnicode_AsUTF8(key);
        if (name == NULL)
            return -1;
        int i = 0;
        while (specs[i].name != NULL && strcmp(specs[i].name, name) != 0)
            i++;
        if (specs[i].name != NULL) {
            void **slot = (void **)(ctx + specs[i].field);
            PyBuffer_Release(&views[i]);
            *slot = NULL;
            if (buf_get(value, &specs[i], &views[i]) < 0)
                return -1;
            *slot = views[i].buf;
        }
        else if (!scalars) {
            PyErr_Format(PyExc_TypeError, "%R is not a buffer of %s", key,
                         Py_TYPE(self)->tp_name);
            return -1;
        }
        else if (PyObject_GenericSetAttr(self, key, value) < 0) {
            return -1;
        }
    }
    return 0;
}

static int
range_error(const char *what)
{
    PyErr_SetString(PyExc_ValueError, what);
    return -1;
}

/* -- FleetRun: the event loop's context ------------------------------ */

enum {
    R_FS, R_FE, R_STRETCH, R_DELAYS, R_HOSTS,
    R_WU_STATE, R_WU_VALIDATED, R_WU_ISSUED, R_WU_OUT, R_WU_TMO,
    R_WU_NHOLD, R_WU_LAST, R_WU_HOLDERS,
    R_R_HOST, R_R_PREV, R_R_DISP, R_R_FLAG,
    R_RET_WID, R_RET_HOST, R_RET_CPU,
    R_NEED, R_STASH, R_HEAP_T, R_HEAP,
    N_RUN_BUFS
};

#define RUN_BUF(index, field, code, size, w) \
    [index] = {#field, offsetof(FleetCtx, field), code, size, w}

static const BufSpec run_bufs[N_RUN_BUFS + 1] = {
    RUN_BUF(R_FS, fs, 'd', 8, 0),
    RUN_BUF(R_FE, fe, 'd', 8, 0),
    RUN_BUF(R_STRETCH, stretch, 'd', 8, 0),
    RUN_BUF(R_DELAYS, delays, 'd', 8, 0),
    RUN_BUF(R_HOSTS, hosts, 'T', sizeof(HostRec), 1),
    RUN_BUF(R_WU_STATE, wu_state, 'B', 1, 1),
    RUN_BUF(R_WU_VALIDATED, wu_validated, 'd', 8, 1),
    RUN_BUF(R_WU_ISSUED, wu_issued, 'i', 4, 1),
    RUN_BUF(R_WU_OUT, wu_out, 'i', 4, 1),
    RUN_BUF(R_WU_TMO, wu_tmo, 'i', 4, 1),
    RUN_BUF(R_WU_NHOLD, wu_nhold, 'B', 1, 1),
    RUN_BUF(R_WU_LAST, wu_last, 'i', 4, 1),
    RUN_BUF(R_WU_HOLDERS, wu_holders, 'i', 4, 1),
    RUN_BUF(R_R_HOST, r_host, 'i', 4, 1),
    RUN_BUF(R_R_PREV, r_prev, 'i', 4, 1),
    RUN_BUF(R_R_DISP, r_disp, 'd', 8, 1),
    RUN_BUF(R_R_FLAG, r_flag, 'B', 1, 1),
    RUN_BUF(R_RET_WID, ret_wid, 'i', 4, 1),
    RUN_BUF(R_RET_HOST, ret_host, 'i', 4, 1),
    RUN_BUF(R_RET_CPU, ret_cpu, 'd', 8, 1),
    RUN_BUF(R_NEED, need, 'i', 4, 1),
    RUN_BUF(R_STASH, stash, 'i', 4, 1),
    RUN_BUF(R_HEAP_T, heap_t, 'd', 8, 1),
    RUN_BUF(R_HEAP, heap, 'T', sizeof(HeapNode), 1),
};

#undef RUN_BUF

typedef struct {
    PyObject_HEAD
    FleetCtx c;
    Py_buffer views[N_RUN_BUFS];
} FleetRunObject;

static int
fleetrun_init(FleetRunObject *self, PyObject *args, PyObject *kwargs)
{
    return ctx_bind((PyObject *)self, run_bufs, self->views,
                    (char *)&self->c, args, kwargs, 1);
}

static void
fleetrun_dealloc(FleetRunObject *self)
{
    for (int i = 0; i < N_RUN_BUFS; i++)
        PyBuffer_Release(&self->views[i]);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Check every buffer against the run's sizes, derive the capacities from
 * the growable groups' lengths, and check the scalars, the host cursors
 * and the heap's ids against them: then no path of fleet_run indexes
 * past a buffer. */
static int
fleetrun_ready(FleetRunObject *self)
{
    FleetCtx *c = &self->c;
    const Py_buffer *v = self->views;
    if (c->quorum < 1 || c->quorum > 255 || c->nwu < 0
            || c->nwu > INT32_MAX)
        return range_error("FleetRun: quorum must be in [1, 255] and nwu "
                           "in [0, 2**31)");
    int64_t slots = c->nwu * c->quorum;
    for (int i = 0; i < N_RUN_BUFS; i++)
        if (buf_need(run_bufs, v, i, 0) < 0)
            return -1;
    for (int i = R_WU_STATE; i <= R_WU_LAST; i++)
        if (buf_need(run_bufs, v, i, c->nwu) < 0)
            return -1;
    if (buf_need(run_bufs, v, R_WU_HOLDERS, slots) < 0
            || buf_need(run_bufs, v, R_STRETCH, 9) < 0
            || buf_need(run_bufs, v, R_DELAYS, 1) < 0)
        return -1;
    c->n = buf_items(&v[R_HOSTS]);
    c->n_delays = buf_items(&v[R_DELAYS]);
    c->rep_cap = buf_cap(v, R_R_HOST, R_R_FLAG);
    c->ret_cap = buf_cap(v, R_RET_WID, R_RET_CPU);
    c->need_cap = buf_cap(v, R_NEED, R_STASH);
    c->heap_cap = buf_cap(v, R_HEAP_T, R_HEAP);
    if (c->heap_len < 0 || c->heap_len > c->heap_cap
            || c->need_count < 0 || c->need_count > c->need_cap
            || c->need_head < 0 || c->need_head >= c->need_cap
            || c->fresh_next < 0 || c->fresh_next > c->fresh_end
            || c->fresh_end > slots
            || c->n_rep < 0 || c->n_rep > c->rep_cap
            || c->ret_count < 0 || c->ret_count > c->ret_cap)
        return range_error("FleetRun: heap_len, need_head, need_count or "
                           "fresh_end out of its buffer's range");
    int64_t sessions = buf_cap(v, R_FS, R_FE);
    for (int64_t h = 0; h < c->n; h++) {
        const HostRec *hr = c->hosts + h;
        if (hr->cur < 0 || hr->cur > hr->send || hr->send > sessions)
            return range_error("FleetRun: a host's session cursor is past "
                               "fs/fe (fill hosts with fleet_init_hosts)");
    }
    for (int64_t i = 0; i < c->heap_len; i++) {
        const HeapNode *e = c->heap + i;
        if (e->host < 0 || e->host >= c->n || e->kind < K_REQUEST
                || e->kind > K_COMPLETE
                || (e->kind != K_REQUEST && ((int64_t)e->rid >= c->n_rep
                                             || e->wid < 0
                                             || e->wid >= c->nwu)))
            return range_error("FleetRun: a heap node names no host, "
                               "replica or unit of the run");
    }
    return 0;
}

static PyObject *
fleetrun_run(FleetRunObject *self, PyObject *Py_UNUSED(ignored))
{
    if (fleetrun_ready(self) < 0)
        return NULL;
    return PyLong_FromLong(fleet_run(&self->c));
}

static PyObject *
fleetrun_grow(FleetRunObject *self, PyObject *args, PyObject *kwargs)
{
    if (ctx_bind((PyObject *)self, run_bufs, self->views,
                 (char *)&self->c, args, kwargs, 0) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef fleetrun_methods[] = {
    {"run", (PyCFunction)fleetrun_run, METH_NOARGS,
     "Run the event loop until it ends (0) or pauses for a buffer to\n"
     "grow (a GROW_* status); the buffers are checked first."},
    {"grow", (PyCFunction)(void (*)(void))fleetrun_grow,
     METH_VARARGS | METH_KEYWORDS,
     "Rebind buffers by name (a grown copy of a full one)."},
    {NULL}
};

#define RUN_I64(name, flags) \
    {#name, T_LONGLONG, offsetof(FleetRunObject, c.name), flags, NULL}
#define RUN_F64(name, flags) \
    {#name, T_DOUBLE, offsetof(FleetRunObject, c.name), flags, NULL}

static PyMemberDef fleetrun_members[] = {
    RUN_I64(nwu, 0), RUN_I64(quorum, 0), RUN_I64(max_replicas, 0),
    RUN_F64(horizon, 0), RUN_F64(err_rate, 0),
    RUN_I64(heap_len, 0), RUN_I64(seq, 0),
    RUN_I64(need_head, 0), RUN_I64(need_count, 0), RUN_I64(fresh_end, 0),
    RUN_I64(n, READONLY), RUN_I64(rep_cap, READONLY),
    RUN_I64(ret_cap, READONLY), RUN_I64(need_cap, READONLY),
    RUN_I64(heap_cap, READONLY), RUN_I64(fresh_next, READONLY),
    RUN_I64(n_valid, READONLY), RUN_I64(n_rep, READONLY),
    RUN_I64(ret_count, READONLY), RUN_I64(ok_n, READONLY),
    RUN_I64(err_n, READONLY), RUN_I64(stale_n, READONLY),
    RUN_I64(tmo_n, READONLY), RUN_I64(red_n, READONLY),
    RUN_F64(err_cpu, READONLY), RUN_F64(stale_cpu, READONLY),
    RUN_F64(red_cpu, READONLY), RUN_I64(need_peak, READONLY),
    {NULL}
};

#undef RUN_I64
#undef RUN_F64

static PyTypeObject FleetRunType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simcore._ccore.FleetRun",
    .tp_basicsize = sizeof(FleetRunObject),
    .tp_dealloc = (destructor)fleetrun_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "The fault-free fleet event loop over arrays it holds views "
              "of;\nFleetRun(**scalars_and_buffers).",
    .tp_methods = fleetrun_methods,
    .tp_members = fleetrun_members,
    .tp_init = (initproc)fleetrun_init,
    .tp_new = PyType_GenericNew,
};

/* -- FleetSample: the column sampler's context ----------------------- */

enum {
    SB_ROOT, SB_SPAWN, SB_KI_NOR, SB_KE_EXP, SB_WI_NOR, SB_FI_NOR, SB_WE_EXP,
    SB_FE_EXP, SB_SPEED_Z, SB_AVAIL, SB_DEPARTURE, SB_SERVE, SB_COUNT,
    SB_S_STARTS, SB_S_ENDS,
    N_SAMPLE_BUFS
};

#define SAMPLE_BUF(index, field, code, size, w) \
    [index] = {#field, offsetof(SampleCtx, field), code, size, w}

static const BufSpec sample_bufs[N_SAMPLE_BUFS + 1] = {
    SAMPLE_BUF(SB_ROOT, root, 'B', 1, 0),
    SAMPLE_BUF(SB_SPAWN, spawn, 'I', 4, 0),
    SAMPLE_BUF(SB_KI_NOR, ki_nor, 'Q', 8, 0),
    SAMPLE_BUF(SB_KE_EXP, ke_exp, 'Q', 8, 0),
    SAMPLE_BUF(SB_WI_NOR, wi_nor, 'd', 8, 0),
    SAMPLE_BUF(SB_FI_NOR, fi_nor, 'd', 8, 0),
    SAMPLE_BUF(SB_WE_EXP, we_exp, 'd', 8, 0),
    SAMPLE_BUF(SB_FE_EXP, fe_exp, 'd', 8, 0),
    SAMPLE_BUF(SB_SPEED_Z, speed_z, 'd', 8, 1),
    SAMPLE_BUF(SB_AVAIL, avail, 'd', 8, 1),
    SAMPLE_BUF(SB_DEPARTURE, departure, 'd', 8, 1),
    SAMPLE_BUF(SB_SERVE, serve, 'Q', 8, 1),
    SAMPLE_BUF(SB_COUNT, count, 'q', 8, 1),
    SAMPLE_BUF(SB_S_STARTS, s_starts, 'd', 8, 1),
    SAMPLE_BUF(SB_S_ENDS, s_ends, 'd', 8, 1),
};

#undef SAMPLE_BUF

/* numpy's ziggurat tables have one entry per layer */
#define ZIG_LAYERS 256

typedef struct {
    PyObject_HEAD
    SampleCtx c;
    Py_buffer views[N_SAMPLE_BUFS];
} FleetSampleObject;

static int
fleetsample_init(FleetSampleObject *self, PyObject *args, PyObject *kwargs)
{
    return ctx_bind((PyObject *)self, sample_bufs, self->views,
                    (char *)&self->c, args, kwargs, 1);
}

static void
fleetsample_dealloc(FleetSampleObject *self)
{
    for (int i = 0; i < N_SAMPLE_BUFS; i++)
        PyBuffer_Release(&self->views[i]);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
fleetsample_ready(FleetSampleObject *self)
{
    SampleCtx *c = &self->c;
    const Py_buffer *v = self->views;
    if (c->start < 0 || c->next < c->start || c->stop < c->next)
        return range_error("FleetSample: needs 0 <= start <= next <= stop");
    int64_t n = c->stop - c->start;
    for (int i = 0; i < N_SAMPLE_BUFS; i++)
        if (buf_need(sample_bufs, v, i, 0) < 0)
            return -1;
    for (int i = SB_KI_NOR; i <= SB_FE_EXP; i++)
        if (buf_need(sample_bufs, v, i, ZIG_LAYERS) < 0)
            return -1;
    for (int i = SB_AVAIL; i <= SB_COUNT; i++)
        if (buf_need(sample_bufs, v, i, n) < 0)
            return -1;
    if (buf_need(sample_bufs, v, SB_SPAWN, 4 * N_STREAMS) < 0
            || buf_need(sample_bufs, v, SB_SPEED_Z,
                        c->draw_speed ? n : 0) < 0)
        return -1;
    c->root_len = buf_items(&v[SB_ROOT]);
    c->s_cap = buf_cap(v, SB_S_STARTS, SB_S_ENDS);
    if (c->s_len < 0 || c->s_len > c->s_cap)
        return range_error("FleetSample: s_len past the session buffers");
    return 0;
}

static PyObject *
fleetsample_run(FleetSampleObject *self, PyObject *Py_UNUSED(ignored))
{
    if (fleetsample_ready(self) < 0)
        return NULL;
    return PyLong_FromLong(fleet_sample(&self->c));
}

static PyObject *
fleetsample_grow(FleetSampleObject *self, PyObject *args, PyObject *kwargs)
{
    if (ctx_bind((PyObject *)self, sample_bufs, self->views,
                 (char *)&self->c, args, kwargs, 0) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef fleetsample_methods[] = {
    {"run", (PyCFunction)fleetsample_run, METH_NOARGS,
     "Sample hosts next..stop-1; 0 when done, GROW_SESS when the session\n"
     "buffers are full (the unfinished host is redrawn on resume)."},
    {"grow", (PyCFunction)(void (*)(void))fleetsample_grow,
     METH_VARARGS | METH_KEYWORDS,
     "Rebind buffers by name (a grown copy of a full one)."},
    {NULL}
};

#define SAMPLE_I64(name, flags) \
    {#name, T_LONGLONG, offsetof(FleetSampleObject, c.name), flags, NULL}
#define SAMPLE_F64(name) \
    {#name, T_DOUBLE, offsetof(FleetSampleObject, c.name), 0, NULL}

static PyMemberDef fleetsample_members[] = {
    SAMPLE_I64(start, 0), SAMPLE_I64(stop, 0), SAMPLE_I64(next, 0),
    SAMPLE_I64(draw_speed, 0),
    SAMPLE_F64(avail_mean), SAMPLE_F64(avail_spread),
    SAMPLE_F64(avail_floor), SAMPLE_F64(avail_ceil),
    SAMPLE_F64(horizon), SAMPLE_F64(departure_mean),
    SAMPLE_F64(session_mean),
    SAMPLE_F64(nor_r), SAMPLE_F64(nor_inv_r), SAMPLE_F64(exp_r),
    SAMPLE_I64(s_len, READONLY), SAMPLE_I64(s_cap, READONLY),
    {NULL}
};

#undef SAMPLE_I64
#undef SAMPLE_F64

static PyTypeObject FleetSampleType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simcore._ccore.FleetSample",
    .tp_basicsize = sizeof(FleetSampleObject),
    .tp_dealloc = (destructor)fleetsample_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "The host-column sampler over arrays it holds views of;\n"
              "FleetSample(**scalars_and_buffers).",
    .tp_methods = fleetsample_methods,
    .tp_members = fleetsample_members,
    .tp_init = (initproc)fleetsample_init,
    .tp_new = PyType_GenericNew,
};

/* -- module functions ------------------------------------------------- */

/* Views of objs[0..n) as specs[0..n), all or none (-1, error set). */
static int
bufs_get(PyObject *const *objs, const BufSpec *specs, Py_buffer *views,
         int n)
{
    for (int i = 0; i < n; i++) {
        if (buf_get(objs[i], &specs[i], &views[i]) < 0) {
            while (i-- > 0)
                PyBuffer_Release(&views[i]);
            return -1;
        }
    }
    return 0;
}

static void
bufs_release(Py_buffer *views, int n)
{
    for (int i = 0; i < n; i++)
        PyBuffer_Release(&views[i]);
}

enum { I_HOSTS, I_SOFF, I_FS, I_FE, I_AN, I_BASE, I_DEPARTURE, I_SEEDS,
       I_SPAWN, N_INIT_BUFS };

static PyObject *
py_init_hosts(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const BufSpec specs[N_INIT_BUFS] = {
        {"hosts", 0, 'T', sizeof(HostRec), 1}, {"soff", 0, 'q', 8, 0},
        {"fs", 0, 'd', 8, 0}, {"fe", 0, 'd', 8, 0}, {"an", 0, 'd', 8, 0},
        {"base", 0, 'd', 8, 0}, {"departure", 0, 'd', 8, 0},
        {"seeds", 0, 'Q', 8, 0}, {"spawn", 0, 'I', 4, 0}};
    Py_buffer v[N_INIT_BUFS];
    if (nargs != N_INIT_BUFS) {
        PyErr_Format(PyExc_TypeError,
                     "fleet_init_hosts() takes %d arguments (%zd given)",
                     N_INIT_BUFS, nargs);
        return NULL;
    }
    if (bufs_get(args, specs, v, N_INIT_BUFS) < 0)
        return NULL;
    int64_t n = buf_items(&v[I_HOSTS]);
    const int64_t *soff = v[I_SOFF].buf;
    int ok = buf_need(specs, v, I_SOFF, n + 1) == 0
             && buf_need(specs, v, I_AN, n) == 0
             && buf_need(specs, v, I_BASE, n) == 0
             && buf_need(specs, v, I_DEPARTURE, n) == 0
             && buf_need(specs, v, I_SEEDS, n) == 0
             && buf_need(specs, v, I_SPAWN, 4) == 0;
    int64_t sessions = buf_cap(v, I_FS, I_FE);
    for (int64_t h = 0; ok && h < n; h++) {
        if (soff[h] < 0 || soff[h] > soff[h + 1] || soff[h + 1] > sessions)
            ok = range_error("soff: offsets must rise within fs/fe") == 0;
    }
    if (ok)
        init_hosts(v[I_HOSTS].buf, n, soff, v[I_FS].buf, v[I_FE].buf,
                   v[I_AN].buf, v[I_BASE].buf, v[I_DEPARTURE].buf,
                   v[I_SEEDS].buf, v[I_SPAWN].buf);
    bufs_release(v, N_INIT_BUFS);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
py_draw_uniforms(PyObject *module, PyObject *args)
{
    static const BufSpec specs[3] = {
        {"prefix", 0, 'B', 1, 0}, {"suffix", 0, 'B', 1, 0},
        {"out", 0, 'd', 8, 1}};
    PyObject *objs[3];
    long long first, count;
    Py_buffer v[3];
    if (!PyArg_ParseTuple(args, "OOLLO:fleet_draw_uniforms", &objs[0],
                          &objs[1], &first, &count, &objs[2])
            || bufs_get(objs, specs, v, 3) < 0)
        return NULL;
    int status;
    if (count > buf_items(&v[2]))
        status = buf_need(specs, v, 2, count);  /* refused: raises */
    else
        status = draw_uniforms(v[0].buf, buf_items(&v[0]), v[1].buf,
                               buf_items(&v[1]), first, count, v[2].buf);
    bufs_release(v, 3);
    if (PyErr_Occurred())
        return NULL;
    return PyLong_FromLong(status);
}

static PyObject *
py_sha256(PyObject *module, PyObject *arg)
{
    Py_buffer msg;
    if (PyObject_GetBuffer(arg, &msg, PyBUF_SIMPLE) < 0)
        return NULL;
    Sha256 s;
    uint8_t digest[32];
    sha_init(&s);
    sha_update(&s, msg.buf, (size_t)msg.len);
    sha_final(&s, digest);
    PyBuffer_Release(&msg);
    return PyBytes_FromStringAndSize((const char *)digest, 32);
}

/* sizeof, then every offsetof in declaration order: what the numpy
 * dtypes in cloop.py must match. */
static PyObject *
py_host_rec_layout(PyObject *module, PyObject *Py_UNUSED(ignored))
{
    return Py_BuildValue(
        "(nnnnnnnnnnnnnnnnn)", sizeof(HostRec),
        offsetof(HostRec, pcg_lo), offsetof(HostRec, pcg_hi),
        offsetof(HostRec, inc_lo), offsetof(HostRec, inc_hi),
        offsetof(HostRec, an), offsetof(HostRec, waste),
        offsetof(HostRec, cur), offsetof(HostRec, send),
        offsetof(HostRec, base), offsetof(HostRec, departure),
        offsetof(HostRec, poll_fail), offsetof(HostRec, ucur),
        offsetof(HostRec, cur_start), offsetof(HostRec, cur_end),
        offsetof(HostRec, next_start), offsetof(HostRec, pad));
}

static PyObject *
py_heap_node_layout(PyObject *module, PyObject *Py_UNUSED(ignored))
{
    return Py_BuildValue(
        "(nnnnnn)", sizeof(HeapNode), offsetof(HeapNode, seq),
        offsetof(HeapNode, host), offsetof(HeapNode, kind),
        offsetof(HeapNode, rid), offsetof(HeapNode, wid));
}

static PyMethodDef cloop_functions[] = {
    {"fleet_init_hosts", (PyCFunction)(void (*)(void))py_init_hosts,
     METH_FASTCALL,
     "fleet_init_hosts(hosts, soff, fs, fe, an, base, departure, seeds,\n"
     "                 spawn, /)\n--\n\n"
     "Fill one HostRec per host from the host columns."},
    {"fleet_draw_uniforms", (PyCFunction)py_draw_uniforms, METH_VARARGS,
     "fleet_draw_uniforms(prefix, suffix, first, count, out, /)\n--\n\n"
     "_draw's uniforms for keys first..first+count-1 into out; 0, or -1\n"
     "(out untouched) for a payload too long or an invalid key range."},
    {"fleet_sha256", (PyCFunction)py_sha256, METH_O,
     "SHA-256 of a bytes-like object (the kernels' own)."},
    {"host_rec_layout", (PyCFunction)py_host_rec_layout, METH_NOARGS,
     "sizeof(HostRec), then every offsetof in declaration order."},
    {"heap_node_layout", (PyCFunction)py_heap_node_layout, METH_NOARGS,
     "sizeof(HeapNode), then every offsetof in declaration order."},
    {NULL}
};

/* Called from the module init: the context types and the functions. */
static int
cloop_module_init(PyObject *module)
{
    if (PyType_Ready(&FleetRunType) < 0 || PyType_Ready(&FleetSampleType) < 0
            || PyModule_AddObjectRef(module, "FleetRun",
                                     (PyObject *)&FleetRunType) < 0
            || PyModule_AddObjectRef(module, "FleetSample",
                                     (PyObject *)&FleetSampleType) < 0)
        return -1;
    return PyModule_AddFunctions(module, cloop_functions);
}
