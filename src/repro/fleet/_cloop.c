/* The compiled fleet kernels, driven by cloop.py.  repro/ckernel.py
 * builds this file into the kernel library on first use.
 *
 * Three entry points share this file and its PCG64 and SHA-256
 * primitives:
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
 * fallbacks'.  Compile with `-ffp-contract=off` (no FMA contraction) so
 * every double op rounds exactly like CPython's and numpy's; on x86-64
 * all of them use SSE2 doubles.
 *
 * All memory is owned by Python (numpy arrays); the kernels only read
 * and write through the pointers in their context structs.  When a
 * buffer would overflow, a kernel returns a pause status *before*
 * consuming the event (or, for the sampler, before finishing the host);
 * the ctypes wrapper grows the buffer, updates the context, and calls
 * again -- the run resumes exactly where it stopped.
 *
 * The serve-stream error uniforms of fleet_run are drawn here, not
 * pre-drawn: each host's PCG64 lane (XSL-RR output, next_double) is
 * seeded with the sampler's SeedSequence port and stepped on demand
 * through unsigned __int128 arithmetic.  A compiler without that type
 * fails the build, and every kernel falls back to Python.
 *
 * Every context struct field is 8 bytes wide (int64/double/pointer) so
 * the layouts match the ctypes.Structures in cloop.py with no padding;
 * HostRec and HeapNode mirror numpy structured dtypes there.
 * fleet_ctx_layout/sample_ctx_layout/host_rec_layout/heap_node_layout
 * export sizeof and every offsetof so the test suite can assert that.
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

static void heap_push(FleetCtx *c, double t, int64_t seq, int64_t h,
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

static void heap_pop(FleetCtx *c, double *t, HeapNode *top)
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

static void dispatch(FleetCtx *c, int64_t h, double now)
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
            heap_push(c, next_poll, c->seq++, h, K_REQUEST, 0, 0);
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
        heap_push(c, fin, c->seq++, h, K_COMPLETE, rid, wid);
        if (deadline < fin)
            heap_push(c, deadline, c->seq++, h, K_DEADLINE, rid, wid);
    } else if (deadline <= c->horizon) {
        heap_push(c, deadline, c->seq++, h, K_DEADLINE, rid, wid);
    }
}

int fleet_run(FleetCtx *c)
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
        heap_pop(c, &t, &ev);
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
                heap_push(c, t, c->seq++, h, K_REQUEST, 0, 0);
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
                dispatch(c, h, t);
        } else if (ev.kind == K_REQUEST) {
            dispatch(c, ev.host, t);
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

/* SHA-256 of msg[0:len] into out[0:32]; exported for the test suite. */
void fleet_sha256(const uint8_t *msg, int64_t len, uint8_t *out)
{
    Sha256 s;
    sha_init(&s);
    sha_update(&s, msg, (size_t)len);
    sha_final(&s, out);
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
int fleet_draw_uniforms(const uint8_t *prefix, int64_t plen,
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
void fleet_init_hosts(HostRec *hosts, int64_t n, const int64_t *soff,
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
int fleet_sample(SampleCtx *c)
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

/* ---- ABI guard: sizeof, then every offsetof in declaration order ---- */

#define OFF(type, field) out[k++] = (int64_t)offsetof(type, field)

int64_t fleet_ctx_layout(int64_t *out)
{
    int64_t k = 0;
    out[k++] = (int64_t)sizeof(FleetCtx);
    OFF(FleetCtx, n); OFF(FleetCtx, nwu); OFF(FleetCtx, quorum);
    OFF(FleetCtx, max_replicas); OFF(FleetCtx, horizon);
    OFF(FleetCtx, err_rate); OFF(FleetCtx, n_delays);
    OFF(FleetCtx, fs); OFF(FleetCtx, fe);
    OFF(FleetCtx, stretch); OFF(FleetCtx, delays);
    OFF(FleetCtx, hosts);
    OFF(FleetCtx, wu_state); OFF(FleetCtx, wu_validated);
    OFF(FleetCtx, wu_issued); OFF(FleetCtx, wu_out); OFF(FleetCtx, wu_tmo);
    OFF(FleetCtx, wu_holders); OFF(FleetCtx, wu_nhold);
    OFF(FleetCtx, wu_last);
    OFF(FleetCtx, r_host); OFF(FleetCtx, r_prev);
    OFF(FleetCtx, r_disp); OFF(FleetCtx, r_flag); OFF(FleetCtx, rep_cap);
    OFF(FleetCtx, ret_wid); OFF(FleetCtx, ret_host); OFF(FleetCtx, ret_cpu);
    OFF(FleetCtx, ret_cap);
    OFF(FleetCtx, need); OFF(FleetCtx, need_head); OFF(FleetCtx, need_count);
    OFF(FleetCtx, need_cap); OFF(FleetCtx, stash);
    OFF(FleetCtx, fresh_next); OFF(FleetCtx, fresh_end);
    OFF(FleetCtx, heap_t); OFF(FleetCtx, heap);
    OFF(FleetCtx, heap_len); OFF(FleetCtx, heap_cap);
    OFF(FleetCtx, seq); OFF(FleetCtx, n_valid); OFF(FleetCtx, n_rep);
    OFF(FleetCtx, ret_count);
    OFF(FleetCtx, ok_n); OFF(FleetCtx, err_n); OFF(FleetCtx, stale_n);
    OFF(FleetCtx, tmo_n); OFF(FleetCtx, red_n);
    OFF(FleetCtx, err_cpu); OFF(FleetCtx, stale_cpu); OFF(FleetCtx, red_cpu);
    OFF(FleetCtx, need_peak);
    return k;
}

int64_t host_rec_layout(int64_t *out)
{
    int64_t k = 0;
    out[k++] = (int64_t)sizeof(HostRec);
    OFF(HostRec, pcg_lo); OFF(HostRec, pcg_hi);
    OFF(HostRec, inc_lo); OFF(HostRec, inc_hi);
    OFF(HostRec, an); OFF(HostRec, waste); OFF(HostRec, cur);
    OFF(HostRec, send); OFF(HostRec, base); OFF(HostRec, departure);
    OFF(HostRec, poll_fail); OFF(HostRec, ucur);
    OFF(HostRec, cur_start); OFF(HostRec, cur_end); OFF(HostRec, next_start);
    OFF(HostRec, pad);
    return k;
}

int64_t heap_node_layout(int64_t *out)
{
    int64_t k = 0;
    out[k++] = (int64_t)sizeof(HeapNode);
    OFF(HeapNode, seq); OFF(HeapNode, host);
    OFF(HeapNode, kind); OFF(HeapNode, rid); OFF(HeapNode, wid);
    return k;
}

int64_t sample_ctx_layout(int64_t *out)
{
    int64_t k = 0;
    out[k++] = (int64_t)sizeof(SampleCtx);
    OFF(SampleCtx, start); OFF(SampleCtx, stop); OFF(SampleCtx, next);
    OFF(SampleCtx, root); OFF(SampleCtx, root_len);
    OFF(SampleCtx, draw_speed);
    OFF(SampleCtx, avail_mean); OFF(SampleCtx, avail_spread);
    OFF(SampleCtx, avail_floor); OFF(SampleCtx, avail_ceil);
    OFF(SampleCtx, horizon); OFF(SampleCtx, departure_mean);
    OFF(SampleCtx, session_mean);
    OFF(SampleCtx, spawn);
    OFF(SampleCtx, ki_nor); OFF(SampleCtx, ke_exp);
    OFF(SampleCtx, wi_nor); OFF(SampleCtx, fi_nor);
    OFF(SampleCtx, we_exp); OFF(SampleCtx, fe_exp);
    OFF(SampleCtx, nor_r); OFF(SampleCtx, nor_inv_r); OFF(SampleCtx, exp_r);
    OFF(SampleCtx, speed_z); OFF(SampleCtx, avail); OFF(SampleCtx, departure);
    OFF(SampleCtx, serve); OFF(SampleCtx, count);
    OFF(SampleCtx, s_starts); OFF(SampleCtx, s_ends);
    OFF(SampleCtx, s_len); OFF(SampleCtx, s_cap);
    return k;
}
