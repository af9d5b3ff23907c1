/* The OS scheduler's hot path: its decision pass and its crossings.
 *
 * Not a translation unit of its own: simcore/_ccore.c includes this file
 * after the event core's types, so the compiled base type of
 * repro.osmodel.scheduler.Scheduler defined at the end drives the event
 * core (SimEvent triggers, EngineCore's schedule and EventHandle cancel)
 * without calling back into Python.  Built with the extension by
 * repro.ckernel; its Python oracle is tests/_oracle_pass.py.
 *
 * The pass is a line-for-line re-encoding of the Python pass: finish,
 * place with round-robin rotation and group preference, price with the
 * shared-L2 factor times paging, tick; the CPU charge with its L2
 * statistics; and submit's state checks.  Every double is read and
 * written in the Python pass's order, and the extension is built with
 * -ffp-contract=off, so both passes produce the same bits.
 *
 * State lives in C records: one SchedThread per thread, one SchedCore per
 * core and the SharedL2Model's L2Stats are the bodies of Python objects
 * (the ThreadRecord, CoreRecord and L2Record types below, which
 * repro.osmodel.threads.SimThread, scheduler.CoreState and
 * repro.hardware.cache.CacheStats subclass; their members are built
 * from offsetof, so there is no second copy of any field to keep in
 * step).  The SchedCtx with the counters, the thread table, the mix
 * table and the observation log is state the Scheduler type owns.
 *
 * Pass protocol.  A crossing writes now/paging/observe into the context,
 * then calls one entry point; each returns a status:
 *
 *   >= 0         the pass retired that thread slot's segment and stopped
 *                before the next one: the crossing fires the thread's
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
 * Python pass is appended to the context's log, in the pass's order; the
 * crossing has Python replay it (Scheduler._replay, handed the entries as
 * tuples) after each entry point, before it fires anything.  The log
 * holds at most 3 entries per core plus one per crossing.
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
    SchedCore **cores;
    L2Stats *l2;
    /* grown by the Scheduler object */
    int64_t n_threads;
    SchedThread **threads;
    int64_t *runnable;  /* capacity >= n_threads */
    double *mixes;
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
    int64_t submits;     /* submit calls that reached the pass */
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
        SchedCore *core = c->cores[k];
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
        if (c->cores[k]->thread == slot) {
            c->cores[k]->thread = -1;
            c->cores[k]->speed = 0.0;
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
    SchedCore **cores = c->cores;
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
            int64_t slot = cores[k]->thread;
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
            cores[k]->thread = -1;
            cores[k]->speed = 0.0;
            if (c->observe)
                put(c, LOG_PREEMPT, 0, 0, 0, 0.0, 0.0);
        }
    }
    /* keep placed winners on their cores; fill the rest in order */
    int64_t next = 0;
    for (int64_t k = 0; k < n_cores; k++) {
        if (cores[k]->thread >= 0)
            continue;
        while (next < n_runnable
                && c->threads[runnable[next]]->state == TS_RUNNING)
            next++;
        if (next == n_runnable)
            break;
        int64_t slot = runnable[next++];
        SchedThread *t = c->threads[slot];
        cores[k]->thread = slot;
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
        int64_t slot = cores[k]->thread;
        if (slot < 0) {
            cores[k]->speed = 0.0;
            continue;
        }
        SchedThread *t = c->threads[slot];
        double pressure = 0.0;
        for (int64_t j = 0; j < n_cores; j++) {
            if (j != k && cores[j]->thread >= 0) {
                SchedThread *u = c->threads[cores[j]->thread];
                pressure += mixes[u->mix * MIX_WIDTH + MIX_PRESSURE];
            }
        }
        double factor = 1.0 / (1.0 + c->coeff
                               * mixes[t->mix * MIX_WIDTH + MIX_SENSITIVITY]
                               * pressure);
        double speed = c->frequency * factor;
        speed = speed * paging;
        cores[k]->speed = speed;
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
static int64_t sched_submit(SchedCtx *c, int64_t slot)
{
    SchedThread *t = c->threads[slot];
    c->log_len = 0;
    c->submits++;
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
static int64_t sched_exit(SchedCtx *c, int64_t slot)
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
static int64_t sched_tick(SchedCtx *c)
{
    c->log_len = 0;
    charge(c);
    return decide(c);
}

/* A pass without a charge (the balance-set scan charged already). */
static int64_t sched_decide(SchedCtx *c)
{
    c->log_len = 0;
    return decide(c);
}

/* Continue a pass after the crossing fired a completion. */
static int64_t sched_resume(SchedCtx *c)
{
    c->log_len = 0;
    return run_pass(c);
}

/* Scheduler._charge_elapsed alone. */
static int64_t sched_charge(SchedCtx *c)
{
    c->log_len = 0;
    charge(c);
    return SCH_QUIET;
}

/* ------------------------------------------------------------------ */
/* The crossings: the compiled base of scheduler.Scheduler             */

/* A crossing is one public call (submit, exit_thread), one timer tick
 * (_on_tick), one charge (_charge_elapsed) or one balance-set pass
 * (_decide).  It writes the context's inputs, calls one entry point of
 * the pass and drives the status to the end: a finished segment's
 * completion fires through the event core's trigger, the pass resumes,
 * and the tick is cancelled and re-armed through EngineCore's own
 * schedule.  The completions and the tick handle live here. */

static PyObject *SchedulerError;   /* repro.errors.SchedulerError */
static PyObject *str_paging, *str_paging_factor, *str_enabled, *str_trace,
    *str_replay, *str_on_tick, *str_thread_name, *str_state, *str_mix,
    *str_cancel, *str_cpi, *str_l2_pressure, *str_l2_sensitivity;

/* The records: a thread, a core and the L2 statistics are Python objects
 * whose C body is the record the pass reads and writes in place.
 * SimThread, CoreState and CacheStats subclass these types; each member
 * is a record field at its offsetof. */
typedef struct {
    PyObject_HEAD
    SchedThread rec;
} ThreadRecordObject;

typedef struct {
    PyObject_HEAD
    SchedCore rec;
} CoreRecordObject;

typedef struct {
    PyObject_HEAD
    L2Stats rec;
} L2RecordObject;

/* The thread object whose record is *r. */
#define THREAD_OBJECT(r) \
    ((PyObject *)((char *)(r) - offsetof(ThreadRecordObject, rec)))

#define REC_D(type, name, field) \
    {name, T_DOUBLE, offsetof(type, rec.field), 0, NULL}
#define REC_I(type, name, field) \
    {name, T_LONGLONG, offsetof(type, rec.field), 0, NULL}
/* an index the pass reads memory through: written by C only */
#define REC_INDEX(type, name, field) \
    {name, T_LONGLONG, offsetof(type, rec.field), READONLY, NULL}

static PyMemberDef thread_record_members[] = {
    REC_D(ThreadRecordObject, "remaining_cycles", remaining_cycles),
    REC_D(ThreadRecordObject, "cycles_retired", cycles_retired),
    REC_D(ThreadRecordObject, "instructions_retired", instructions_retired),
    REC_D(ThreadRecordObject, "cpu_seconds", cpu_seconds),
    REC_D(ThreadRecordObject, "quantum_used", quantum_used),
    REC_D(ThreadRecordObject, "boost_cpu_remaining", boost_cpu_remaining),
    REC_D(ThreadRecordObject, "last_ran_at", last_ran_at),
    REC_D(ThreadRecordObject, "ready_since", ready_since),
    REC_I(ThreadRecordObject, "rr_seq", rr_seq),
    REC_I(ThreadRecordObject, "segments_completed", segments_completed),
    REC_I(ThreadRecordObject, "base_priority", base_priority),
    REC_I(ThreadRecordObject, "_state", state),
    REC_I(ThreadRecordObject, "_group", group),
    REC_INDEX(ThreadRecordObject, "_mix", mix),
    REC_INDEX(ThreadRecordObject, "_slot", slot),
    {NULL}
};

static PyMemberDef core_record_members[] = {
    REC_INDEX(CoreRecordObject, "_thread", thread),
    REC_D(CoreRecordObject, "speed", speed),
    REC_D(CoreRecordObject, "busy_seconds", busy_seconds),
    {NULL}
};

static PyMemberDef l2_record_members[] = {
    REC_D(L2RecordObject, "contended_seconds", contended_seconds),
    REC_D(L2RecordObject, "solo_seconds", solo_seconds),
    REC_D(L2RecordObject, "worst_factor", worst_factor),
    {NULL}
};

#undef REC_D
#undef REC_I
#undef REC_INDEX

/* A zeroed record (BLOCKED, no cycles); a thread starts with no group,
 * no mix row and no slot (-1), a core idle (-1). */
static PyObject *
thread_record_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    ThreadRecordObject *self = (ThreadRecordObject *)type->tp_alloc(type, 0);
    if (self != NULL)
        self->rec.group = self->rec.mix = self->rec.slot = -1;
    return (PyObject *)self;
}

static PyObject *
core_record_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    CoreRecordObject *self = (CoreRecordObject *)type->tp_alloc(type, 0);
    if (self != NULL)
        self->rec.thread = -1;
    return (PyObject *)self;
}

static PyTypeObject ThreadRecordType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simcore._ccore.ThreadRecord",
    .tp_basicsize = sizeof(ThreadRecordObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "A thread's scheduler record (the C body of SimThread).",
    .tp_members = thread_record_members,
    .tp_new = thread_record_new,
};

static PyTypeObject CoreRecordType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simcore._ccore.CoreRecord",
    .tp_basicsize = sizeof(CoreRecordObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "A core's occupancy record (the C body of CoreState).",
    .tp_members = core_record_members,
    .tp_new = core_record_new,
};

static PyTypeObject L2RecordType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simcore._ccore.L2Record",
    .tp_basicsize = sizeof(L2RecordObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "The shared-L2 statistics record (the C body of CacheStats).",
    .tp_members = l2_record_members,
    .tp_new = PyType_GenericNew,
};

/* Mixes a scheduler remembers by identity: a hit skips the Python
 * __hash__ of the row lookup (the figures use a handful of mixes). */
#define MIX_SEEN 16

typedef struct {
    PyObject_HEAD
    SchedCtx ctx;            /* the pass's state; its arrays are owned here */
    Py_ssize_t threads_cap;  /* capacity of ctx.threads and ctx.runnable */
    Py_ssize_t n_mixes, mixes_cap;  /* rows of ctx.mixes */
    EngineObject *engine;
    PyObject *threads;       /* the scheduler's thread list, slot order */
    PyObject *cores;         /* tuple of the CoreRecords of ctx.cores */
    PyObject *l2;            /* the L2Record of ctx.l2 */
    PyObject *memory;        /* the paging factor's source */
    PyObject *metrics;       /* the metrics registry (observe flag) */
    PyObject *mix_rows;      /* {InstructionMix: row of the mix table} */
    PyObject *tick;          /* the armed tick's handle, or NULL */
    PyObject *on_tick;       /* the tick's callback: bound _on_tick */
    PyObject **completions;  /* pending completion per slot, or NULL */
    Py_ssize_t n_completions;
    PyObject *mix_seen[MIX_SEEN];
    int64_t mix_seen_row[MIX_SEEN];
    int n_mix_seen;
} SchedulerObject;

static PyObject *
scheduler_tp_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    /* Arguments belong to __init__ (the subclass takes its own). */
    return type->tp_alloc(type, 0);
}

static int
scheduler_tp_init(SchedulerObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"engine", "threads", "cores", "l2", "memory",
                             "metrics", "frequency", "coeff", "quantum",
                             NULL};
    PyObject *engine, *threads, *cores, *l2, *memory, *metrics;
    double frequency, coeff, quantum;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "O!O!OO!OOddd:Scheduler", kwlist, &EngineType,
            &engine, &PyList_Type, &threads, &cores, &L2RecordType, &l2,
            &memory, &metrics, &frequency, &coeff, &quantum))
        return -1;
    if (self->engine != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "Scheduler is already bound");
        return -1;
    }
    double now = PyFloat_AsDouble(((EngineObject *)engine)->now);
    if (now == -1.0 && PyErr_Occurred())
        return -1;
    PyObject *records = PySequence_Tuple(cores);
    if (records == NULL)
        return -1;
    Py_ssize_t n_cores = PyTuple_GET_SIZE(records);
    SchedCore **recs = PyMem_Calloc(n_cores + 1, sizeof *recs);
    SchedLog *log = PyMem_Calloc(3 * n_cores + 2, sizeof *log);
    PyObject *rows = PyDict_New();
    if (recs == NULL || log == NULL || rows == NULL) {
        if (rows != NULL)
            PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t k = 0; k < n_cores; k++) {
        PyObject *core = PyTuple_GET_ITEM(records, k);
        if (!PyObject_TypeCheck(core, &CoreRecordType)) {
            PyErr_Format(PyExc_TypeError, "core %zd is a %s, not a CoreRecord",
                         k, Py_TYPE(core)->tp_name);
            goto fail;
        }
        recs[k] = &((CoreRecordObject *)core)->rec;
    }
    SchedCtx *c = &self->ctx;
    c->frequency = frequency;
    c->coeff = coeff;
    c->quantum = quantum;
    c->last_update = now;
    c->n_cores = n_cores;
    c->cores = recs;
    c->l2 = &((L2RecordObject *)l2)->rec;
    c->log = log;
    self->cores = records;
    self->l2 = Py_NewRef(l2);
    self->engine = (EngineObject *)Py_NewRef(engine);
    self->threads = Py_NewRef(threads);
    self->memory = Py_NewRef(memory);
    self->metrics = Py_NewRef(metrics);
    self->mix_rows = rows;
    return 0;
fail:
    PyMem_Free(recs);
    PyMem_Free(log);
    Py_XDECREF(rows);
    Py_DECREF(records);
    return -1;
}

static int
scheduler_traverse(SchedulerObject *self, visitproc visit, void *arg)
{
    for (int64_t i = 0; i < self->ctx.n_threads; i++)
        Py_VISIT(THREAD_OBJECT(self->ctx.threads[i]));
    Py_VISIT(self->engine);
    Py_VISIT(self->threads);
    Py_VISIT(self->cores);
    Py_VISIT(self->l2);
    Py_VISIT(self->memory);
    Py_VISIT(self->metrics);
    Py_VISIT(self->mix_rows);
    Py_VISIT(self->tick);
    Py_VISIT(self->on_tick);
    for (Py_ssize_t i = 0; i < self->n_completions; i++)
        Py_VISIT(self->completions[i]);
    for (int i = 0; i < self->n_mix_seen; i++)
        Py_VISIT(self->mix_seen[i]);
    return 0;
}

/* Drop every reference and free the context's arrays: a cleared
 * scheduler refuses every crossing (scheduler_ready). */
static int
scheduler_clear(SchedulerObject *self)
{
    SchedCtx *c = &self->ctx;
    Py_CLEAR(self->tick);
    Py_CLEAR(self->on_tick);
    for (Py_ssize_t i = 0; i < self->n_completions; i++)
        Py_CLEAR(self->completions[i]);
    for (int i = 0; i < self->n_mix_seen; i++)
        Py_CLEAR(self->mix_seen[i]);
    self->n_mix_seen = 0;
    int64_t n_threads = c->n_threads;
    SchedThread **threads = c->threads;
    c->n_threads = 0;
    c->threads = NULL;
    for (int64_t i = 0; i < n_threads; i++)
        Py_DECREF(THREAD_OBJECT(threads[i]));
    PyMem_Free(threads);
    PyMem_Free(c->runnable);
    PyMem_Free(c->mixes);
    PyMem_Free(c->log);
    PyMem_Free(c->cores);
    c->runnable = NULL;
    c->mixes = NULL;
    c->log = NULL;
    c->cores = NULL;
    c->n_cores = 0;
    c->l2 = NULL;
    self->threads_cap = self->n_mixes = self->mixes_cap = 0;
    Py_CLEAR(self->mix_rows);
    Py_CLEAR(self->metrics);
    Py_CLEAR(self->memory);
    Py_CLEAR(self->threads);
    Py_CLEAR(self->l2);
    Py_CLEAR(self->cores);
    Py_CLEAR(self->engine);
    return 0;
}

static void
scheduler_dealloc(SchedulerObject *self)
{
    PyTypeObject *tp = Py_TYPE(self);
    PyObject_GC_UnTrack(self);
    Py_TRASHCAN_BEGIN(self, scheduler_dealloc)
    scheduler_clear(self);
    PyMem_Free(self->completions);
    self->completions = NULL;
    self->n_completions = 0;
    tp->tp_free((PyObject *)self);
    Py_TRASHCAN_END
}

static int
scheduler_ready(SchedulerObject *self)
{
    if (self->engine == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "Scheduler crossings were not bound (__init__)");
        return -1;
    }
    return 0;
}

/* SchedulerError(f"thread {name!r} <what>"); always -1. */
static int
thread_error(PyObject *thread, const char *what)
{
    PyObject *name = PyObject_GetAttr(thread, str_thread_name);
    if (name == NULL)
        return -1;
    PyObject *msg = PyUnicode_FromFormat("thread %R %s", name, what);
    Py_DECREF(name);
    if (msg != NULL) {
        PyErr_SetObject(SchedulerError, msg);
        Py_DECREF(msg);
    }
    return -1;
}

/* ``thread``'s slot in this scheduler, or -1 (no error set).  The pass
 * indexes C memory with it, so a thread of another scheduler is never
 * given one: the record's slot must hold that very record. */
static Py_ssize_t
slot_of(SchedulerObject *self, PyObject *thread)
{
    if (!PyObject_TypeCheck(thread, &ThreadRecordType))
        return -1;
    SchedThread *rec = &((ThreadRecordObject *)thread)->rec;
    int64_t slot = rec->slot;
    if (slot < 0 || slot >= self->ctx.n_threads
            || self->ctx.threads[slot] != rec)
        return -1;
    return slot;
}

static int
truth_of(PyObject *owner, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(owner, name);
    if (value == NULL)
        return -1;
    int r = PyObject_IsTrue(value);
    Py_DECREF(value);
    return r;
}

/* Write the crossing's inputs into the context: now, the paging factor
 * and whether the pass must log its instrument calls. */
static int
scheduler_sync(SchedulerObject *self, int *observe)
{
    SchedCtx *c = &self->ctx;
    PyObject *now = self->engine->now;
    double t = PyFloat_CheckExact(now) ? PyFloat_AS_DOUBLE(now)
                                       : PyFloat_AsDouble(now);
    if (t == -1.0 && PyErr_Occurred())
        return -1;
    c->now = t;
    PyObject *paging = PyObject_GetAttr(self->memory, str_paging);
    if (paging == NULL)
        return -1;
    if (paging == Py_None) {
        Py_DECREF(paging);
        paging = PyObject_CallMethodNoArgs(self->memory, str_paging_factor);
        if (paging == NULL)
            return -1;
    }
    double p = PyFloat_AsDouble(paging);
    Py_DECREF(paging);
    if (p == -1.0 && PyErr_Occurred())
        return -1;
    c->paging = p;
    /* METRICS.enabled or engine.trace.enabled */
    int on = truth_of(self->metrics, str_enabled);
    if (on == 0) {
        PyObject *trace = PyObject_GetAttr((PyObject *)self->engine,
                                           str_trace);
        if (trace == NULL)
            return -1;
        on = truth_of(trace, str_enabled);
        Py_DECREF(trace);
    }
    if (on < 0)
        return -1;
    c->observe = on;
    *observe = on;
    return 0;
}

/* Have Python make the instrument calls the pass logged, in order: the
 * entries go to Scheduler._replay as (kind, a, b, c, x, y) tuples. */
static int
scheduler_replay(SchedulerObject *self)
{
    SchedCtx *c = &self->ctx;
    if (c->log_len == 0)
        return 0;
    PyObject *log = PyTuple_New(c->log_len);
    if (log == NULL)
        return -1;
    for (int64_t i = 0; i < c->log_len; i++) {
        const SchedLog *e = &c->log[i];
        PyObject *entry = Py_BuildValue(
            "(LLLLdd)", (long long)e->kind, (long long)e->a,
            (long long)e->b, (long long)e->c, e->x, e->y);
        if (entry == NULL) {
            Py_DECREF(log);
            return -1;
        }
        PyTuple_SET_ITEM(log, i, entry);
    }
    PyObject *r = PyObject_CallMethodOneArg((PyObject *)self, str_replay,
                                            log);
    Py_DECREF(log);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Cancel the armed tick and, for SCH_TICK, arm the next one after
 * next_dt seconds (EngineCore.schedule's arithmetic and seq). */
static int
scheduler_rearm(SchedulerObject *self, int64_t status)
{
    PyObject *tick = self->tick;
    if (tick != NULL) {
        PyObject *r;
        if (Py_TYPE(tick) == &HandleType)
            r = handle_cancel((HandleObject *)tick, NULL);
        else
            r = PyObject_CallMethodNoArgs(tick, str_cancel);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        Py_CLEAR(self->tick);
    }
    if (status != SCH_TICK)
        return 0;
    if (self->on_tick == NULL) {
        self->on_tick = PyObject_GetAttr((PyObject *)self, str_on_tick);
        if (self->on_tick == NULL)
            return -1;
    }
    EngineObject *engine = self->engine;
    double dt = self->ctx.next_dt;
    PyObject *when;
    if (PyFloat_CheckExact(engine->now)) {
        when = PyFloat_FromDouble(PyFloat_AS_DOUBLE(engine->now) + dt);
    }
    else {
        PyObject *delay = PyFloat_FromDouble(dt);
        if (delay == NULL)
            return -1;
        when = PyNumber_Add(engine->now, delay);
        Py_DECREF(delay);
    }
    if (when == NULL)
        return -1;
    engine->pending += 1;
    self->tick = engine_push(engine, when, self->on_tick, empty_args, 0);
    Py_DECREF(when);
    return self->tick == NULL ? -1 : 0;
}

/* Drive an entry point's status to the end of its pass: fire each
 * finished segment's completion and resume, then re-arm the tick.  A
 * completion callback that raises leaves the pass (in_decide cleared). */
static int
scheduler_finish(SchedulerObject *self, int64_t status, int observe)
{
    SchedCtx *c = &self->ctx;
    if (observe && scheduler_replay(self) < 0)
        return -1;
    while (status >= 0) {
        PyObject *completion = NULL;
        if (status < self->n_completions) {
            completion = self->completions[status];
            self->completions[status] = NULL;
        }
        if (completion != NULL) {
            int r = 0;
            /* may synchronously resume a process that submits again;
             * the context marks the pass dirty */
            if (!((EventObject *)completion)->triggered)
                r = event_trigger((EventObject *)completion, 1, Py_None);
            Py_DECREF(completion);
            if (r < 0)
                goto fail;
        }
        if (scheduler_sync(self, &observe) < 0)
            goto fail;
        status = sched_resume(c);
        if (observe && scheduler_replay(self) < 0)
            goto fail;
    }
    if (status >= SCH_IDLE)
        return scheduler_rearm(self, status);
    if (status == SCH_NO_CORE)
        return thread_error(THREAD_OBJECT(c->threads[c->fault]),
                            "not on any core");
    return 0;
fail:
    c->in_decide = 0;
    return -1;
}

/* A new row of the mix table holding ``mix``'s cpi, L2 pressure and L2
 * sensitivity; mix_rows maps the mix (and every value-equal one) to it. */
static int64_t
scheduler_add_mix(SchedulerObject *self, PyObject *mix)
{
    PyObject *names[MIX_WIDTH] = {str_cpi, str_l2_pressure,
                                  str_l2_sensitivity};
    double values[MIX_WIDTH];
    for (int i = 0; i < MIX_WIDTH; i++) {
        PyObject *value = PyObject_GetAttr(mix, names[i]);
        if (value == NULL)
            return -1;
        values[i] = PyFloat_AsDouble(value);
        Py_DECREF(value);
        if (values[i] == -1.0 && PyErr_Occurred())
            return -1;
    }
    Py_ssize_t row = self->n_mixes;
    if (row >= self->mixes_cap) {
        Py_ssize_t cap = 2 * row + 4;
        double *grown = PyMem_Realloc(self->ctx.mixes,
                                      cap * MIX_WIDTH * sizeof(double));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        self->ctx.mixes = grown;
        self->mixes_cap = cap;
    }
    PyObject *key = PyLong_FromSsize_t(row);
    if (key == NULL || PyDict_SetItem(self->mix_rows, mix, key) < 0) {
        Py_XDECREF(key);
        return -1;
    }
    Py_DECREF(key);
    memcpy(self->ctx.mixes + row * MIX_WIDTH, values, sizeof values);
    self->n_mixes = row + 1;
    return row;
}

/* Row of ``mix`` in the mix table: identity first, then by value (the
 * dict; value-equal mixes share one row), then a new row. */
static int64_t
scheduler_mix_row(SchedulerObject *self, PyObject *mix)
{
    for (int i = 0; i < self->n_mix_seen; i++) {
        if (self->mix_seen[i] == mix)
            return self->mix_seen_row[i];
    }
    int64_t value;
    PyObject *row = PyDict_GetItemWithError(self->mix_rows, mix);
    if (row != NULL) {
        value = PyLong_AsLongLong(row);
        if (value == -1 && PyErr_Occurred())
            return -1;
        if (value < 0 || value >= self->n_mixes) {
            PyErr_SetString(PyExc_RuntimeError, "_mix_rows was altered");
            return -1;
        }
    }
    else {
        if (PyErr_Occurred())
            return -1;
        value = scheduler_add_mix(self, mix);
        if (value < 0)
            return -1;
    }
    if (self->n_mix_seen < MIX_SEEN) {
        Py_INCREF(mix);
        self->mix_seen[self->n_mix_seen] = mix;
        self->mix_seen_row[self->n_mix_seen++] = value;
    }
    return value;
}

/* A fresh SimEvent of the scheduler's engine, as SimEvent(engine). */
static EventObject *
new_completion(SchedulerObject *self)
{
    EventObject *event = (EventObject *)EventType.tp_alloc(&EventType, 0);
    if (event != NULL)
        event->engine = Py_NewRef((PyObject *)self->engine);
    return event;
}

/* Hold ``completion`` as slot's pending completion (steals it). */
static int
scheduler_hold(SchedulerObject *self, Py_ssize_t slot, PyObject *completion)
{
    if (slot >= self->n_completions) {
        Py_ssize_t cap = 2 * slot + 4;
        PyObject **grown = PyMem_Realloc(self->completions,
                                         cap * sizeof(PyObject *));
        if (grown == NULL) {
            Py_DECREF(completion);
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t i = self->n_completions; i < cap; i++)
            grown[i] = NULL;
        self->completions = grown;
        self->n_completions = cap;
    }
    Py_XSETREF(self->completions[slot], completion);
    return 0;
}

static PyObject *
scheduler_submit(SchedulerObject *self, PyObject *const *args,
                 Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError,
                     "submit() takes exactly 3 arguments (%zd given)", nargs);
        return NULL;
    }
    if (scheduler_ready(self) < 0)
        return NULL;
    PyObject *thread = args[0], *cycles = args[1], *mix = args[2];
    Py_ssize_t slot = slot_of(self, thread);
    if (slot < 0) {
        thread_error(thread, "belongs to another scheduler");
        return NULL;
    }
    int64_t row = scheduler_mix_row(self, mix);
    if (row < 0)
        return NULL;
    SchedCtx *c = &self->ctx;
    double demand = PyFloat_AsDouble(cycles);
    if (demand == -1.0 && PyErr_Occurred())
        return NULL;
    c->cycles = demand;
    c->mix = row;
    int observe;
    if (scheduler_sync(self, &observe) < 0)
        return NULL;
    int64_t status = sched_submit(c, slot);
    if (SCH_NO_CORE < status && status < SCH_QUIET) {
        if (status == SCH_INSTANT) {
            if (observe && scheduler_replay(self) < 0)
                return NULL;
            EventObject *done = new_completion(self);
            if (done != NULL && event_trigger(done, 1, Py_None) < 0)
                Py_CLEAR(done);
            return (PyObject *)done;
        }
        if (status == SCH_EXITED) {
            thread_error(thread, "has exited");
        }
        else if (status == SCH_BUSY) {
            thread_error(thread, "already has an outstanding segment");
        }
        else {
            PyObject *msg = PyUnicode_FromFormat("negative cycle demand: %S",
                                                 cycles);
            if (msg != NULL) {
                PyErr_SetObject(SchedulerError, msg);
                Py_DECREF(msg);
            }
        }
        return NULL;
    }
    if (PyObject_SetAttr(thread, str_mix, mix) < 0)
        return NULL;
    EventObject *completion = new_completion(self);
    if (completion == NULL)
        return NULL;
    Py_INCREF(completion);
    if (scheduler_hold(self, slot, (PyObject *)completion) < 0
            || scheduler_finish(self, status, observe) < 0) {
        Py_DECREF(completion);
        return NULL;
    }
    return (PyObject *)completion;
}

static PyObject *
scheduler_exit_thread(SchedulerObject *self, PyObject *thread)
{
    if (scheduler_ready(self) < 0)
        return NULL;
    Py_ssize_t slot = slot_of(self, thread);
    if (slot >= 0) {
        if (self->ctx.threads[slot]->state == TS_DONE)
            Py_RETURN_NONE;
    }
    else {
        /* an exited thread is left alone, whoever spawned it */
        PyObject *state = PyObject_GetAttr(thread, str_state);
        if (state == NULL)
            return NULL;
        long code = PyLong_AsLong(state);
        Py_DECREF(state);
        if (code == -1 && PyErr_Occurred())
            return NULL;
        if (code == TS_DONE)
            Py_RETURN_NONE;
        thread_error(thread, "belongs to another scheduler");
        return NULL;
    }
    int observe;
    if (scheduler_sync(self, &observe) < 0)
        return NULL;
    if (scheduler_finish(self, sched_exit(&self->ctx, slot), observe) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
scheduler_charge_elapsed(SchedulerObject *self, PyObject *Py_UNUSED(ignored))
{
    if (scheduler_ready(self) < 0)
        return NULL;
    int observe;
    if (scheduler_sync(self, &observe) < 0)
        return NULL;
    sched_charge(&self->ctx);
    if (observe && scheduler_replay(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
scheduler_decide(SchedulerObject *self, PyObject *Py_UNUSED(ignored))
{
    if (scheduler_ready(self) < 0)
        return NULL;
    int observe;
    if (scheduler_sync(self, &observe) < 0)
        return NULL;
    if (scheduler_finish(self, sched_decide(&self->ctx), observe) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
scheduler_on_tick(SchedulerObject *self, PyObject *Py_UNUSED(ignored))
{
    if (scheduler_ready(self) < 0)
        return NULL;
    Py_CLEAR(self->tick);
    int observe;
    if (scheduler_sync(self, &observe) < 0)
        return NULL;
    if (scheduler_finish(self, sched_tick(&self->ctx), observe) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* Give a fresh thread the next slot of the thread table (and of the
 * scheduler's thread list); the table holds a reference to it. */
static PyObject *
scheduler_adopt(SchedulerObject *self, PyObject *thread)
{
    if (scheduler_ready(self) < 0)
        return NULL;
    if (!PyObject_TypeCheck(thread, &ThreadRecordType)) {
        PyErr_Format(PyExc_TypeError, "a %s is not a thread record",
                     Py_TYPE(thread)->tp_name);
        return NULL;
    }
    SchedCtx *c = &self->ctx;
    SchedThread *rec = &((ThreadRecordObject *)thread)->rec;
    if (rec->slot != -1) {
        thread_error(thread, "belongs to a scheduler already");
        return NULL;
    }
    if (c->n_threads == self->threads_cap) {
        /* realloc keeps what a pass suspended at a completion collected */
        Py_ssize_t cap = 2 * self->threads_cap + 4;
        SchedThread **threads = PyMem_Realloc(c->threads,
                                              cap * sizeof *threads);
        if (threads == NULL)
            return PyErr_NoMemory();
        c->threads = threads;
        int64_t *runnable = PyMem_Realloc(c->runnable,
                                          cap * sizeof *runnable);
        if (runnable == NULL)
            return PyErr_NoMemory();
        c->runnable = runnable;
        self->threads_cap = cap;
    }
    if (PyList_Append(self->threads, thread) < 0)
        return NULL;
    rec->slot = c->n_threads;
    c->threads[c->n_threads++] = rec;
    Py_INCREF(thread);
    Py_RETURN_NONE;
}

static PyObject *
scheduler_get_tick(SchedulerObject *self, void *closure)
{
    return Py_NewRef(self->tick ? self->tick : Py_None);
}

static PyMethodDef scheduler_methods[] = {
    {"submit", (PyCFunction)(void (*)(void))scheduler_submit, METH_FASTCALL,
     "submit($self, thread, cycles, mix, /)\n--\n\n"
     "Give ``thread`` a compute segment; returns its completion event.\n\n"
     "The thread must be BLOCKED (one outstanding segment at a time:\n"
     "callers sequence their demand through the completion event)."},
    {"exit_thread", (PyCFunction)scheduler_exit_thread, METH_O,
     "Terminate a thread permanently."},
    {"_charge_elapsed", (PyCFunction)scheduler_charge_elapsed, METH_NOARGS,
     "Account CPU progress since the last decision point."},
    {"_decide", (PyCFunction)scheduler_decide, METH_NOARGS,
     "(Re)compute placement and speeds; schedule the next tick."},
    {"_on_tick", (PyCFunction)scheduler_on_tick, METH_NOARGS,
     "The timer tick: charge, then a decision pass."},
    {"_adopt", (PyCFunction)scheduler_adopt, METH_O,
     "Give a fresh thread the next slot of the thread table."},
    {NULL}
};

#define CTX_I(name, field, flags, doc) \
    {name, T_LONGLONG, offsetof(SchedulerObject, ctx.field), flags, doc}

static PyMemberDef scheduler_members[] = {
    {"_mix_rows", T_OBJECT, offsetof(SchedulerObject, mix_rows), READONLY},
    CTX_I("decisions", decisions, READONLY,
          "Decision passes made (one per placement)."),
    CTX_I("submits", submits, READONLY,
          "submit calls that reached the pass (a thread of another\n"
          "scheduler is refused before)."),
    CTX_I("_rr_counter", rr_counter, 0,
          "The round-robin counter (the balance-set scan numbers boosts)."),
    CTX_I("_in_decide", in_decide, READONLY, "Whether a pass is running."),
    CTX_I("_dirty", dirty, READONLY, "Whether a re-entrant call marked "
          "the running pass for a restart."),
    {"_last_update", T_DOUBLE, offsetof(SchedulerObject, ctx.last_update),
     READONLY, "When CPU progress was last charged."},
    {NULL}
};

#undef CTX_I

static PyGetSetDef scheduler_getset[] = {
    {"_tick_handle", (getter)scheduler_get_tick, NULL,
     "The armed tick's handle, or None.", NULL},
    {NULL}
};

static PyTypeObject SchedulerType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simcore._ccore.Scheduler",
    .tp_basicsize = sizeof(SchedulerObject),
    .tp_dealloc = (destructor)scheduler_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The scheduler's crossings over the compiled decision pass.",
    .tp_traverse = (traverseproc)scheduler_traverse,
    .tp_clear = (inquiry)scheduler_clear,
    .tp_methods = scheduler_methods,
    .tp_members = scheduler_members,
    .tp_getset = scheduler_getset,
    .tp_init = (initproc)scheduler_tp_init,
    .tp_new = scheduler_tp_new,
};

/* Called from the module init: the type and its interned names. */
static int
sched_module_init(PyObject *module)
{
    PyObject *errors = PyImport_ImportModule("repro.errors");
    if (errors == NULL)
        return -1;
    SchedulerError = PyObject_GetAttrString(errors, "SchedulerError");
    Py_DECREF(errors);
    if (SchedulerError == NULL)
        return -1;
    str_paging = PyUnicode_InternFromString("_paging");
    str_paging_factor = PyUnicode_InternFromString("paging_penalty_factor");
    str_enabled = PyUnicode_InternFromString("enabled");
    str_trace = PyUnicode_InternFromString("trace");
    str_replay = PyUnicode_InternFromString("_replay");
    str_on_tick = PyUnicode_InternFromString("_on_tick");
    str_thread_name = PyUnicode_InternFromString("name");
    str_state = PyUnicode_InternFromString("_state");
    str_mix = PyUnicode_InternFromString("mix");
    str_cancel = PyUnicode_InternFromString("cancel");
    str_cpi = PyUnicode_InternFromString("cpi");
    str_l2_pressure = PyUnicode_InternFromString("l2_pressure");
    str_l2_sensitivity = PyUnicode_InternFromString("l2_sensitivity");
    if (!str_paging || !str_paging_factor || !str_enabled || !str_trace
        || !str_replay || !str_on_tick || !str_thread_name || !str_state
        || !str_mix || !str_cancel || !str_cpi || !str_l2_pressure
        || !str_l2_sensitivity)
        return -1;
    if (PyType_Ready(&ThreadRecordType) < 0
            || PyType_Ready(&CoreRecordType) < 0
            || PyType_Ready(&L2RecordType) < 0
            || PyType_Ready(&SchedulerType) < 0)
        return -1;
    if (PyModule_AddObjectRef(module, "ThreadRecord",
                              (PyObject *)&ThreadRecordType) < 0
            || PyModule_AddObjectRef(module, "CoreRecord",
                                     (PyObject *)&CoreRecordType) < 0
            || PyModule_AddObjectRef(module, "L2Record",
                                     (PyObject *)&L2RecordType) < 0)
        return -1;
    return PyModule_AddObjectRef(module, "Scheduler",
                                 (PyObject *)&SchedulerType);
}
