/* The OS scheduler's decision pass, compiled into the kernel library.
 *
 * A line-for-line re-encoding of the hot path of
 * repro/osmodel/scheduler.py: the decision pass (finish, place with
 * round-robin rotation and group preference, price with the shared-L2
 * factor times paging, tick), the CPU charge with its L2 statistics,
 * and submit's state checks.  Every double is read and written in the
 * Python pass's order, and the library is built with -ffp-contract=off,
 * so both passes produce the same bits.
 *
 * State lives in records Python owns (ctypes structures): one
 * SchedThread per thread (repro.osmodel.threads.SimThread *is* that
 * record), one SchedCore per core, one SchedCtx per scheduler, and the
 * SharedL2Model's CacheStats record.  The Python pass reads and writes
 * the same records, so there is no second copy of any state.
 *
 * Crossing protocol.  Python writes now/paging/observe into the context,
 * then calls one entry point; each returns a status:
 *
 *   >= 0         the pass retired that thread slot's segment and stopped
 *                before the next one: Python fires the thread's
 *                completion (which may re-enter submit/exit_thread; a
 *                re-entrant call only marks the context dirty) and calls
 *                sched_resume;
 *   SCH_TICK     the pass ended: cancel the old tick, arm one after
 *                next_dt seconds;
 *   SCH_IDLE     the pass ended with every core idle: cancel the tick;
 *   SCH_QUIET    no pass ended (a charge, or a re-entrant call);
 *   SCH_INSTANT  submit of at most CYCLE_EPSILON cycles: complete now;
 *   SCH_EXITED, SCH_BUSY, SCH_NEGATIVE, SCH_NO_CORE
 *                submit's and evict's errors (nothing was changed).
 *
 * With observation on (metrics or tracing), every instrument call of the
 * Python pass is appended to the context's log, in the pass's order;
 * Python replays the log after each crossing, before it fires anything.
 * The log holds at most 3 entries per core plus one per crossing.
 *
 * sched_ctx_layout/sched_thread_layout/sched_core_layout/sched_log_layout
 * export sizeof and every offsetof for the test suite.
 */

#include <stddef.h>
#include <stdint.h>

#define TS_BLOCKED 0
#define TS_READY 1
#define TS_RUNNING 2
#define TS_DONE 3

#define CYCLE_EPSILON 0.5
#define TIME_EPSILON 1e-9
#define PRIORITY_REALTIME 15

#define SCH_TICK -1
#define SCH_IDLE -2
#define SCH_QUIET -3
#define SCH_INSTANT -4
#define SCH_EXITED -5
#define SCH_BUSY -6
#define SCH_NEGATIVE -7
#define SCH_NO_CORE -8

#define LOG_L2 0       /* x = factor, y = dt */
#define LOG_SEGMENT 1  /* a = slot, b = segments, x = now */
#define LOG_PREEMPT 2
#define LOG_PLACE 3    /* a = core, b = slot, c = priority, x = now,
                          y = ready_since */

/* Row layout of the mix table. */
#define MIX_CPI 0
#define MIX_PRESSURE 1
#define MIX_SENSITIVITY 2
#define MIX_WIDTH 3

typedef struct {
    double remaining_cycles;
    double cycles_retired;
    double instructions_retired;
    double cpu_seconds;
    double quantum_used;
    double boost_cpu_remaining;
    double last_ran_at;
    double ready_since;
    int64_t rr_seq;
    int64_t segments_completed;
    int64_t base_priority;
    int64_t state;  /* TS_* */
    int64_t group;  /* affinity group id, -1 for none */
    int64_t mix;    /* row of the mix table */
    int64_t slot;   /* index in the context's thread table */
} SchedThread;

typedef struct {
    int64_t thread;  /* slot of the occupant, -1 when idle */
    double speed;
    double busy_seconds;
} SchedCore;

typedef struct {
    double contended_seconds;
    double solo_seconds;
    double worst_factor;
} L2Stats;

typedef struct {
    int64_t kind;
    int64_t a;
    int64_t b;
    int64_t c;
    double x;
    double y;
} SchedLog;

typedef struct {
    /* inputs Python writes before every crossing */
    double now;
    double paging;
    int64_t observe;
    /* submit's arguments */
    double cycles;
    int64_t mix;
    /* output of a pass that ends in SCH_TICK */
    double next_dt;
    /* fixed at construction */
    double frequency;
    double coeff;
    double quantum;
    int64_t n_cores;
    SchedCore *cores;
    L2Stats *l2;
    /* grown by Python */
    int64_t n_threads;
    SchedThread **threads;
    int64_t *runnable;  /* capacity >= n_threads */
    const double *mixes;
    SchedLog *log;
    int64_t log_len;
    /* the scheduler's own state */
    double last_update;
    int64_t rr_counter;
    int64_t decisions;
    int64_t in_decide;
    int64_t dirty;
    int64_t cursor;      /* next slot the finish scan looks at */
    int64_t n_runnable;  /* runnable slots the scan has collected */
    int64_t fault;       /* slot of the thread an error names */
} SchedCtx;

static void put(SchedCtx *c, int64_t kind, int64_t a, int64_t b, int64_t k,
                double x, double y)
{
    SchedLog *e = &c->log[c->log_len++];
    e->kind = kind;
    e->a = a;
    e->b = b;
    e->c = k;
    e->x = x;
    e->y = y;
}

static int64_t effective_priority(const SchedThread *t)
{
    return t->boost_cpu_remaining > 0.0 ? PRIORITY_REALTIME
                                        : t->base_priority;
}

/* Scheduler._charge_elapsed with SharedL2Model.observe inlined. */
static void charge(SchedCtx *c)
{
    double now = c->now;
    double dt = now - c->last_update;
    c->last_update = now;
    if (dt <= 0)
        return;
    for (int64_t k = 0; k < c->n_cores; k++) {
        SchedCore *core = &c->cores[k];
        if (core->thread < 0)
            continue;
        SchedThread *t = c->threads[core->thread];
        double speed = core->speed;
        double cycles = speed * dt;
        double remaining = t->remaining_cycles;
        if (remaining < cycles)
            cycles = remaining;
        t->remaining_cycles = remaining - cycles;
        t->cycles_retired += cycles;
        t->instructions_retired +=
            cycles / c->mixes[t->mix * MIX_WIDTH + MIX_CPI];
        t->cpu_seconds += dt;
        t->quantum_used += dt;
        t->last_ran_at = now;
        core->busy_seconds += dt;
        double boost_left = t->boost_cpu_remaining;
        if (boost_left > 0.0) {
            boost_left = boost_left - dt;
            t->boost_cpu_remaining = boost_left > 0.0 ? boost_left : 0.0;
        }
        double factor = speed != 0.0 ? speed / c->frequency : 1.0;
        L2Stats *l2 = c->l2;
        if (factor < 1.0) {
            l2->contended_seconds += dt;
            if (factor < l2->worst_factor)
                l2->worst_factor = factor;
        } else {
            l2->solo_seconds += dt;
        }
        if (c->observe)
            put(c, LOG_L2, 0, 0, 0, factor, dt);
    }
}

static int evict(SchedCtx *c, int64_t slot)
{
    for (int64_t k = 0; k < c->n_cores; k++) {
        if (c->cores[k].thread == slot) {
            c->cores[k].thread = -1;
            c->cores[k].speed = 0.0;
            return 1;
        }
    }
    c->fault = slot;
    return 0;
}

/* _priority_order: (-effective priority, rr_seq), ascending. */
static int before(const SchedThread *a, const SchedThread *b)
{
    int64_t pa = -effective_priority(a), pb = -effective_priority(b);
    if (pa != pb)
        return pa < pb;
    return a->rr_seq < b->rr_seq;
}

/* Scheduler._apply_group_preference over slot arrays; ``rejected``
 * shrinks in place. */
static void group_preference(SchedCtx *c, int64_t *chosen, int64_t n_chosen,
                             int64_t *rejected, int64_t *n_rejected)
{
    if (*n_rejected == 0)
        return;
    for (int64_t i = 0; i < n_chosen; i++) {
        SchedThread *loser = c->threads[chosen[i]];
        int64_t group = loser->group;
        if (group < 0)
            continue;
        int64_t priority = effective_priority(loser);
        int shared = 0;
        for (int64_t j = 0; j < n_chosen; j++) {
            SchedThread *other = c->threads[chosen[j]];
            if (other != loser && other->group == group
                    && effective_priority(other) > priority) {
                shared = 1;
                break;
            }
        }
        if (!shared)
            continue;
        for (int64_t j = 0; j < *n_rejected; j++) {
            SchedThread *sub = c->threads[rejected[j]];
            if (effective_priority(sub) == effective_priority(loser)
                    && sub->group != group) {
                chosen[i] = rejected[j];
                for (int64_t m = j + 1; m < *n_rejected; m++)
                    rejected[m - 1] = rejected[m];
                *n_rejected -= 1;
                break;
            }
        }
    }
}

/* place, price and tick: the rest of a pass once the finish scan is
 * clean. */
static int64_t place(SchedCtx *c)
{
    int64_t n_cores = c->n_cores;
    int64_t *runnable = c->runnable;
    int64_t n_runnable = c->n_runnable;
    SchedCore *cores = c->cores;
    double now = c->now;

    c->decisions++;
    double quantum_spent = c->quantum - TIME_EPSILON;
    for (int64_t i = 0; i < n_runnable; i++) {
        SchedThread *t = c->threads[runnable[i]];
        if (t->state == TS_RUNNING && t->quantum_used >= quantum_spent) {
            t->rr_seq = ++c->rr_counter;
            t->quantum_used = 0.0;
        }
    }
    /* stable insertion sort: at most a handful of threads */
    for (int64_t i = 1; i < n_runnable; i++) {
        int64_t slot = runnable[i];
        SchedThread *t = c->threads[slot];
        int64_t j = i;
        while (j > 0 && before(t, c->threads[runnable[j - 1]])) {
            runnable[j] = runnable[j - 1];
            j--;
        }
        runnable[j] = slot;
    }
    if (n_runnable > n_cores) {
        int64_t n_rejected = n_runnable - n_cores;
        group_preference(c, runnable, n_cores, runnable + n_cores,
                         &n_rejected);
        n_runnable = n_cores;
        for (int64_t k = 0; k < n_cores; k++) {
            int64_t slot = cores[k].thread;
            if (slot < 0)
                continue;
            int kept = 0;
            for (int64_t i = 0; i < n_runnable; i++) {
                if (runnable[i] == slot) {
                    kept = 1;
                    break;
                }
            }
            if (kept)
                continue;
            SchedThread *t = c->threads[slot];
            t->state = TS_READY;
            t->ready_since = now;
            cores[k].thread = -1;
            cores[k].speed = 0.0;
            if (c->observe)
                put(c, LOG_PREEMPT, 0, 0, 0, 0.0, 0.0);
        }
    }
    /* keep placed winners on their cores; fill the rest in order */
    int64_t next = 0;
    for (int64_t k = 0; k < n_cores; k++) {
        if (cores[k].thread >= 0)
            continue;
        while (next < n_runnable
                && c->threads[runnable[next]]->state == TS_RUNNING)
            next++;
        if (next == n_runnable)
            break;
        int64_t slot = runnable[next++];
        SchedThread *t = c->threads[slot];
        cores[k].thread = slot;
        t->state = TS_RUNNING;
        if (c->observe)
            put(c, LOG_PLACE, k, slot, effective_priority(t), now,
                t->ready_since);
    }
    /* price: (frequency * L2 factor) * paging, the factor's sibling
     * pressure a left fold from 0.0 in core order; then tick */
    const double *mixes = c->mixes;
    double paging = c->paging;
    double quantum = c->quantum;
    double next_dt = 0.0;
    int armed = 0;
    for (int64_t k = 0; k < n_cores; k++) {
        int64_t slot = cores[k].thread;
        if (slot < 0) {
            cores[k].speed = 0.0;
            continue;
        }
        SchedThread *t = c->threads[slot];
        double pressure = 0.0;
        for (int64_t j = 0; j < n_cores; j++) {
            if (j != k && cores[j].thread >= 0) {
                SchedThread *u = c->threads[cores[j].thread];
                pressure += mixes[u->mix * MIX_WIDTH + MIX_PRESSURE];
            }
        }
        double factor = 1.0 / (1.0 + c->coeff
                               * mixes[t->mix * MIX_WIDTH + MIX_SENSITIVITY]
                               * pressure);
        double speed = c->frequency * factor;
        speed = speed * paging;
        cores[k].speed = speed;
        if (speed <= 0)
            continue;
        double dt = t->remaining_cycles / speed;
        double quantum_dt = quantum - t->quantum_used;
        if (TIME_EPSILON > quantum_dt)
            quantum_dt = TIME_EPSILON;
        if (quantum_dt < dt)
            dt = quantum_dt;
        double boost_dt = t->boost_cpu_remaining;
        if (boost_dt > 0.0) {
            if (TIME_EPSILON > boost_dt)
                boost_dt = TIME_EPSILON;
            if (boost_dt < dt)
                dt = boost_dt;
        }
        if (!armed || dt < next_dt) {
            next_dt = dt;
            armed = 1;
        }
    }
    c->in_decide = 0;
    if (!armed)
        return SCH_IDLE;
    if (TIME_EPSILON > next_dt)
        next_dt = TIME_EPSILON;
    c->next_dt = next_dt;
    return SCH_TICK;
}

/* The finish scan from c->cursor: stops at each retired segment. */
static int64_t run_pass(SchedCtx *c)
{
    for (;;) {
        while (c->cursor < c->n_threads) {
            int64_t slot = c->cursor++;
            SchedThread *t = c->threads[slot];
            int64_t state = t->state;
            if (state != TS_READY && state != TS_RUNNING)
                continue;
            if (!(t->remaining_cycles <= CYCLE_EPSILON)) {
                c->runnable[c->n_runnable++] = slot;
                continue;
            }
            if (state == TS_RUNNING && !evict(c, slot)) {
                c->in_decide = 0;
                return SCH_NO_CORE;
            }
            t->state = TS_BLOCKED;
            t->remaining_cycles = 0.0;
            t->segments_completed += 1;
            if (c->observe)
                put(c, LOG_SEGMENT, slot, t->segments_completed, 0, c->now,
                    0.0);
            return slot;
        }
        if (!c->dirty)
            return place(c);
        c->dirty = 0;
        c->cursor = 0;
        c->n_runnable = 0;
    }
}

static int64_t decide(SchedCtx *c)
{
    if (c->in_decide) {
        c->dirty = 1;
        return SCH_QUIET;
    }
    c->in_decide = 1;
    c->dirty = 0;
    c->cursor = 0;
    c->n_runnable = 0;
    return run_pass(c);
}

/* Scheduler.submit for thread ``slot``, c->cycles of mix row c->mix. */
int64_t sched_submit(SchedCtx *c, int64_t slot)
{
    SchedThread *t = c->threads[slot];
    c->log_len = 0;
    if (t->state == TS_DONE)
        return SCH_EXITED;
    if (t->state != TS_BLOCKED)
        return SCH_BUSY;
    double cycles = c->cycles;
    if (cycles < 0)
        return SCH_NEGATIVE;
    charge(c);
    if (cycles <= CYCLE_EPSILON)
        return SCH_INSTANT;
    t->mix = c->mix;
    t->remaining_cycles = cycles;
    t->state = TS_READY;
    t->ready_since = c->now;
    t->rr_seq = ++c->rr_counter;
    t->quantum_used = 0.0;
    return decide(c);
}

/* Scheduler.exit_thread for a thread that is not DONE. */
int64_t sched_exit(SchedCtx *c, int64_t slot)
{
    SchedThread *t = c->threads[slot];
    c->log_len = 0;
    charge(c);
    if (t->state == TS_RUNNING && !evict(c, slot))
        return SCH_NO_CORE;
    t->state = TS_DONE;
    t->remaining_cycles = 0.0;
    return decide(c);
}

/* Scheduler._on_tick: charge, then a pass. */
int64_t sched_tick(SchedCtx *c)
{
    c->log_len = 0;
    charge(c);
    return decide(c);
}

/* A pass without a charge (the balance-set scan charged already). */
int64_t sched_decide(SchedCtx *c)
{
    c->log_len = 0;
    return decide(c);
}

/* Continue a pass after Python fired a completion. */
int64_t sched_resume(SchedCtx *c)
{
    c->log_len = 0;
    return run_pass(c);
}

/* Scheduler._charge_elapsed alone. */
int64_t sched_charge(SchedCtx *c)
{
    c->log_len = 0;
    charge(c);
    return SCH_QUIET;
}

#define FIELD(type, name) out[n++] = (int64_t)offsetof(type, name)

int64_t sched_ctx_layout(int64_t *out)
{
    int64_t n = 0;
    out[n++] = (int64_t)sizeof(SchedCtx);
    FIELD(SchedCtx, now); FIELD(SchedCtx, paging); FIELD(SchedCtx, observe);
    FIELD(SchedCtx, cycles); FIELD(SchedCtx, mix); FIELD(SchedCtx, next_dt);
    FIELD(SchedCtx, frequency); FIELD(SchedCtx, coeff);
    FIELD(SchedCtx, quantum); FIELD(SchedCtx, n_cores);
    FIELD(SchedCtx, cores); FIELD(SchedCtx, l2);
    FIELD(SchedCtx, n_threads); FIELD(SchedCtx, threads);
    FIELD(SchedCtx, runnable); FIELD(SchedCtx, mixes);
    FIELD(SchedCtx, log); FIELD(SchedCtx, log_len);
    FIELD(SchedCtx, last_update); FIELD(SchedCtx, rr_counter);
    FIELD(SchedCtx, decisions); FIELD(SchedCtx, in_decide);
    FIELD(SchedCtx, dirty); FIELD(SchedCtx, cursor);
    FIELD(SchedCtx, n_runnable); FIELD(SchedCtx, fault);
    return n;
}

int64_t sched_thread_layout(int64_t *out)
{
    int64_t n = 0;
    out[n++] = (int64_t)sizeof(SchedThread);
    FIELD(SchedThread, remaining_cycles); FIELD(SchedThread, cycles_retired);
    FIELD(SchedThread, instructions_retired);
    FIELD(SchedThread, cpu_seconds); FIELD(SchedThread, quantum_used);
    FIELD(SchedThread, boost_cpu_remaining); FIELD(SchedThread, last_ran_at);
    FIELD(SchedThread, ready_since); FIELD(SchedThread, rr_seq);
    FIELD(SchedThread, segments_completed);
    FIELD(SchedThread, base_priority); FIELD(SchedThread, state);
    FIELD(SchedThread, group); FIELD(SchedThread, mix);
    FIELD(SchedThread, slot);
    return n;
}

int64_t sched_core_layout(int64_t *out)
{
    int64_t n = 0;
    out[n++] = (int64_t)sizeof(SchedCore);
    FIELD(SchedCore, thread); FIELD(SchedCore, speed);
    FIELD(SchedCore, busy_seconds);
    return n;
}

int64_t sched_l2_layout(int64_t *out)
{
    int64_t n = 0;
    out[n++] = (int64_t)sizeof(L2Stats);
    FIELD(L2Stats, contended_seconds); FIELD(L2Stats, solo_seconds);
    FIELD(L2Stats, worst_factor);
    return n;
}

int64_t sched_log_layout(int64_t *out)
{
    int64_t n = 0;
    out[n++] = (int64_t)sizeof(SchedLog);
    FIELD(SchedLog, kind); FIELD(SchedLog, a); FIELD(SchedLog, b);
    FIELD(SchedLog, c); FIELD(SchedLog, x); FIELD(SchedLog, y);
    return n;
}

#undef FIELD
