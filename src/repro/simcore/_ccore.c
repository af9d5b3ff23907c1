/* Compiled event core of the discrete-event engine.
 *
 * A CPython extension holding the substrate's hot path, a re-encoding of
 * the pure-Python oracle in ``tests/_oracle_core.py`` (which the test
 * suite runs in place of this module to hold it to the same events), and,
 * through the files it includes at the end, the OS scheduler's records,
 * pass and crossings (``osmodel/_sched.c``), the network frame path
 * (``osmodel/_frames.c``) and the fleet kernels (``fleet/_cloop.c``:
 * the fault-free event loop, the host-column sampler and the fault-draw
 * batch, driven by repro.fleet.cloop):
 *
 *   EventHandle  a cancellable callback on the engine heap;
 *   SimEvent     a one-shot condition: succeed/fail/add_callback, the
 *                _triggered/_ok/_value/_callbacks fields; subclassable,
 *                so Timeout/AllOf/AnyOf/Request keep their Python bodies;
 *   SimProcess   the generator-process resume core (_first_resume,
 *                _on_wait_complete, _advance); repro.simcore.process
 *                subclasses it with the lifecycle and interruption API;
 *   EngineCore   the clock, schedule/schedule_at and the run_until_event
 *                drain; repro.simcore.engine.Engine subclasses it.
 *
 * The heap stays a Python list of (when, seq, handle) tuples, pushed and
 * popped through _heapq, so the Python run()/step() loops pop what this
 * module pushes and the dispatched (when, seq, callback) sequence is the
 * twin's.  Every
 * number keeps its Python type: arithmetic and comparisons take a double
 * fast path only when both operands are exact floats, and fall back to
 * the generic number protocol otherwise, so an int or numpy time is
 * carried through exactly as the twin carries it.
 *
 * Built by repro.ckernel (compile_extension) and imported as
 * repro.simcore._ccore: the one compiled module of repro.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

static PyObject *SimulationError; /* repro.errors.SimulationError */
static PyObject *noop_fn;         /* what a cancelled handle's fn becomes */
static PyObject *str_update, *str_throw, *str_close, *str_send,
    *str_triggered, *str_name;
static PyObject *float_eps;       /* 1e-12: the past check's slack */
static PyObject *int_zero;
static PyObject *empty_args;      /* () */

static PyTypeObject HandleType, EventType, ProcessType, EngineType;

/* ------------------------------------------------------------------ */
/* number helpers: exact-float fast paths, generic protocol otherwise  */

/* a < b as Python evaluates it; -1 on error */
static int
num_lt(PyObject *a, PyObject *b)
{
    if (PyFloat_CheckExact(a) && PyFloat_CheckExact(b))
        return PyFloat_AS_DOUBLE(a) < PyFloat_AS_DOUBLE(b);
    return PyObject_RichCompareBool(a, b, Py_LT);
}

/* a < b - 1e-12 as Python evaluates it; -1 on error */
static int
in_past(PyObject *a, PyObject *b)
{
    if (PyFloat_CheckExact(a) && PyFloat_CheckExact(b))
        return PyFloat_AS_DOUBLE(a) < PyFloat_AS_DOUBLE(b) - 1e-12;
    PyObject *limit = PyNumber_Subtract(b, float_eps);
    if (limit == NULL)
        return -1;
    int r = PyObject_RichCompareBool(a, limit, Py_LT);
    Py_DECREF(limit);
    return r;
}

/* ------------------------------------------------------------------ */
/* the heap: _heapq over (when, seq, handle) tuples                    */

static PyObject *heappush_fn, *heappop_fn;   /* _heapq.heappush/heappop */

static int
heap_push(PyObject *heap, PyObject *item)
{
    PyObject *args[2] = {heap, item};
    PyObject *r = PyObject_Vectorcall(heappush_fn, args, 2, NULL);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* new reference to the smallest item; NULL (no error set) when empty */
static PyObject *
heap_pop(PyObject *heap)
{
    if (PyList_GET_SIZE(heap) == 0)
        return NULL;
    return PyObject_Vectorcall(heappop_fn, &heap, 1, NULL);
}

/* ------------------------------------------------------------------ */
/* EventHandle                                                         */

typedef struct {
    PyObject_HEAD
    PyObject *now;
    PyObject *heap;
    PyObject *thash;
    long long seq;
    long long processed;
    Py_ssize_t pending;   /* _non_daemon_pending */
} EngineObject;

typedef struct {
    PyObject_HEAD
    PyObject *time;
    PyObject *seq;
    PyObject *fn;
    PyObject *args;
    /* The engine whose non-daemon count this handle holds: NULL for a
     * daemon handle and once the handle fired or was cancelled (the
     * twin's ``_on_cancel`` decrement callback). */
    EngineObject *engine;
    char cancelled;
    char daemon;
} HandleObject;

static HandleObject *
handle_new_raw(PyObject *time, PyObject *seq, PyObject *fn, PyObject *args,
               int daemon, EngineObject *engine)
{
    HandleObject *h = PyObject_GC_New(HandleObject, &HandleType);
    if (h == NULL)
        return NULL;
    Py_INCREF(time);
    h->time = time;
    Py_INCREF(seq);
    h->seq = seq;
    Py_INCREF(fn);
    h->fn = fn;
    Py_INCREF(args);
    h->args = args;
    Py_XINCREF(engine);
    h->engine = engine;
    h->cancelled = 0;
    h->daemon = (char)daemon;
    PyObject_GC_Track(h);
    return h;
}

static int
handle_traverse(HandleObject *h, visitproc visit, void *arg)
{
    Py_VISIT(h->time);
    Py_VISIT(h->seq);
    Py_VISIT(h->fn);
    Py_VISIT(h->args);
    Py_VISIT(h->engine);
    return 0;
}

static int
handle_clear(HandleObject *h)
{
    Py_CLEAR(h->time);
    Py_CLEAR(h->seq);
    Py_CLEAR(h->fn);
    Py_CLEAR(h->args);
    Py_CLEAR(h->engine);
    return 0;
}

static void
handle_dealloc(HandleObject *h)
{
    PyObject_GC_UnTrack(h);
    Py_TRASHCAN_BEGIN(h, handle_dealloc)
    handle_clear(h);
    PyObject_GC_Del(h);
    Py_TRASHCAN_END
}

static PyObject *
handle_cancel(HandleObject *h, PyObject *Py_UNUSED(ignored))
{
    if (h->cancelled)
        Py_RETURN_NONE;
    h->cancelled = 1;
    if (h->engine != NULL) {
        h->engine->pending -= 1;
        Py_CLEAR(h->engine);
    }
    /* Drop references so cancelled-but-still-heaped handles don't pin
     * large object graphs alive until their timestamp is reached. */
    Py_INCREF(noop_fn);
    Py_SETREF(h->fn, noop_fn);
    PyObject *empty = PyTuple_New(0);
    if (empty == NULL)
        return NULL;
    Py_SETREF(h->args, empty);
    Py_RETURN_NONE;
}

static PyObject *
handle_get_cancelled(HandleObject *h, void *closure)
{
    return PyBool_FromLong(h->cancelled);
}

static PyObject *
handle_get_active(HandleObject *h, void *closure)
{
    return PyBool_FromLong(!h->cancelled);
}

/* ``_on_cancel``: the engine to notify, or None.  The Python run() and
 * step() loops clear it when a handle fires; nothing else may be set. */
static PyObject *
handle_get_on_cancel(HandleObject *h, void *closure)
{
    return Py_NewRef(h->engine ? (PyObject *)h->engine : Py_None);
}

static int
handle_set_on_cancel(HandleObject *h, PyObject *value, void *closure)
{
    if (value != Py_None) {
        PyErr_SetString(PyExc_TypeError, "_on_cancel can only be cleared");
        return -1;
    }
    Py_CLEAR(h->engine);
    return 0;
}

static PyObject *
handle_repr(HandleObject *h)
{
    double t = PyFloat_AsDouble(h->time);
    if (t == -1.0 && PyErr_Occurred())
        return NULL;
    char *text = PyOS_double_to_string(t, 'f', 6, 0, NULL);
    if (text == NULL)
        return PyErr_NoMemory();
    PyObject *r = PyUnicode_FromFormat(
        "<EventHandle t=%s seq=%S %s>", text, h->seq,
        h->cancelled ? "cancelled" : "active");
    PyMem_Free(text);
    return r;
}

static PyMethodDef handle_methods[] = {
    {"cancel", (PyCFunction)handle_cancel, METH_NOARGS,
     "Prevent the callback from firing.  Idempotent; safe after fire."},
    {NULL}
};

static PyMemberDef handle_members[] = {
    {"time", T_OBJECT, offsetof(HandleObject, time), READONLY},
    {"seq", T_OBJECT, offsetof(HandleObject, seq), READONLY},
    {"fn", T_OBJECT, offsetof(HandleObject, fn), READONLY},
    {"args", T_OBJECT, offsetof(HandleObject, args), READONLY},
    {"daemon", T_BOOL, offsetof(HandleObject, daemon), READONLY},
    {"_cancelled", T_BOOL, offsetof(HandleObject, cancelled), READONLY},
    {NULL}
};

static PyGetSetDef handle_getset[] = {
    {"cancelled", (getter)handle_get_cancelled, NULL, NULL, NULL},
    {"active", (getter)handle_get_active, NULL, NULL, NULL},
    {"_on_cancel", (getter)handle_get_on_cancel,
     (setter)handle_set_on_cancel, NULL, NULL},
    {NULL}
};

static PyTypeObject HandleType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simcore._ccore.EventHandle",
    .tp_basicsize = sizeof(HandleObject),
    .tp_dealloc = (destructor)handle_dealloc,
    .tp_repr = (reprfunc)handle_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A cancellable callback scheduled on the engine heap.",
    .tp_traverse = (traverseproc)handle_traverse,
    .tp_clear = (inquiry)handle_clear,
    .tp_methods = handle_methods,
    .tp_members = handle_members,
    .tp_getset = handle_getset,
};

/* ------------------------------------------------------------------ */
/* SimEvent                                                            */

typedef struct {
    PyObject_HEAD
    PyObject *engine;
    PyObject *value;
    /* The waiters: NULL (none yet, or detached by the trigger) or a list
     * whose items are callables or waiting processes (a SimProcess item
     * stands for its own _on_wait_complete; no bound method is built). */
    PyObject *callbacks;
    char triggered;
    char ok;
} EventObject;

typedef struct {
    EventObject event;
    PyObject *gen;
    PyObject *name;
    PyObject *waiting_on;
    PyObject *resume_scheduled;
    char started;
} ProcessObject;

#define Event_Check(op) PyObject_TypeCheck(op, &EventType)
#define Process_Check(op) PyObject_TypeCheck(op, &ProcessType)

static PyObject *process_on_wait_complete_impl(ProcessObject *, EventObject *);

static PyObject *
event_tp_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    /* Arguments belong to __init__ (subclasses take their own). */
    return type->tp_alloc(type, 0);
}

static int
event_tp_init(EventObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"engine", NULL};
    PyObject *engine;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:SimEvent", kwlist,
                                     &engine))
        return -1;
    Py_INCREF(engine);
    Py_XSETREF(self->engine, engine);
    Py_CLEAR(self->value);
    Py_CLEAR(self->callbacks);
    self->triggered = 0;
    self->ok = 0;
    return 0;
}

static int
event_traverse(EventObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->engine);
    Py_VISIT(self->value);
    Py_VISIT(self->callbacks);
    return 0;
}

static int
event_clear(EventObject *self)
{
    Py_CLEAR(self->engine);
    Py_CLEAR(self->value);
    Py_CLEAR(self->callbacks);
    return 0;
}

static void
event_dealloc(EventObject *self)
{
    PyTypeObject *tp = Py_TYPE(self);
    PyObject_GC_UnTrack(self);
    Py_TRASHCAN_BEGIN(self, event_dealloc)
    event_clear(self);
    tp->tp_free((PyObject *)self);
    Py_TRASHCAN_END
}

/* Trigger: record the outcome, detach the waiters, run them in
 * registration order.  A callback that raises stops the fan-out. */
static int
event_trigger(EventObject *self, int ok, PyObject *value)
{
    if (self->triggered) {
        PyErr_SetString(SimulationError, "event already triggered");
        return -1;
    }
    self->triggered = 1;
    self->ok = (char)ok;
    Py_INCREF(value);
    Py_XSETREF(self->value, value);
    PyObject *callbacks = self->callbacks;
    if (callbacks == NULL)
        return 0;
    self->callbacks = NULL;
    int status = 0;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(callbacks); i++) {
        PyObject *fn = PyList_GET_ITEM(callbacks, i);
        Py_INCREF(fn);
        PyObject *r;
        if (Process_Check(fn))
            r = process_on_wait_complete_impl((ProcessObject *)fn, self);
        else
            r = PyObject_CallOneArg(fn, (PyObject *)self);
        Py_DECREF(fn);
        if (r == NULL) {
            status = -1;
            break;
        }
        Py_DECREF(r);
    }
    Py_DECREF(callbacks);
    return status;
}

static PyObject *
event_succeed(EventObject *self, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    PyObject *value = Py_None;
    Py_ssize_t nkw = kwnames == NULL ? 0 : PyTuple_GET_SIZE(kwnames);
    if (nargs + nkw > 1) {
        PyErr_Format(PyExc_TypeError,
                     "succeed() takes at most 1 argument (%zd given)",
                     nargs + nkw);
        return NULL;
    }
    if (nargs == 1) {
        value = args[0];
    }
    else if (nkw == 1) {
        if (PyUnicode_CompareWithASCIIString(PyTuple_GET_ITEM(kwnames, 0),
                                             "value") != 0) {
            PyErr_Format(PyExc_TypeError,
                         "succeed() got an unexpected keyword argument '%S'",
                         PyTuple_GET_ITEM(kwnames, 0));
            return NULL;
        }
        value = args[0];
    }
    if (event_trigger(self, 1, value) < 0)
        return NULL;
    Py_INCREF(self);
    return (PyObject *)self;
}

static int
event_fail_impl(EventObject *self, PyObject *exc)
{
    if (!PyExceptionInstance_Check(exc)) {
        PyErr_Format(PyExc_TypeError, "fail() needs an exception, got %R",
                     exc);
        return -1;
    }
    return event_trigger(self, 0, exc);
}

static PyObject *
event_fail(EventObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"exc", NULL};
    PyObject *exc;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:fail", kwlist, &exc))
        return NULL;
    if (event_fail_impl(self, exc) < 0)
        return NULL;
    Py_INCREF(self);
    return (PyObject *)self;
}

static int
event_append_waiter(EventObject *self, PyObject *fn)
{
    if (self->callbacks == NULL) {
        self->callbacks = PyList_New(0);
        if (self->callbacks == NULL)
            return -1;
    }
    return PyList_Append(self->callbacks, fn);
}

static PyObject *
event_add_callback(EventObject *self, PyObject *fn)
{
    if (self->triggered) {
        PyObject *r = PyObject_CallOneArg(fn, (PyObject *)self);
        if (r == NULL)
            return NULL;
        Py_DECREF(r);
        Py_RETURN_NONE;
    }
    if (event_append_waiter(self, fn) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
event_get_triggered(EventObject *self, void *closure)
{
    return PyBool_FromLong(self->triggered);
}

static PyObject *
event_get_ok_field(EventObject *self, void *closure)
{
    if (!self->triggered)
        Py_RETURN_NONE;
    return PyBool_FromLong(self->ok);
}

static PyObject *
event_get_value_field(EventObject *self, void *closure)
{
    PyObject *value = self->value ? self->value : Py_None;
    Py_INCREF(value);
    return value;
}

static PyObject *
event_get_callbacks(EventObject *self, void *closure)
{
    if (self->callbacks == NULL) {
        if (self->triggered)
            return PyTuple_New(0);   /* fired: never appended to again */
        self->callbacks = PyList_New(0);
        if (self->callbacks == NULL)
            return NULL;
    }
    Py_INCREF(self->callbacks);
    return self->callbacks;
}

static PyObject *
event_get_ok(EventObject *self, void *closure)
{
    if (!self->triggered) {
        PyErr_SetString(SimulationError, "event not yet triggered");
        return NULL;
    }
    return PyBool_FromLong(self->ok);
}

static PyObject *
event_get_value(EventObject *self, void *closure)
{
    if (!self->triggered) {
        PyErr_SetString(SimulationError, "event not yet triggered");
        return NULL;
    }
    return event_get_value_field(self, closure);
}

static PyObject *
event_repr(EventObject *self)
{
    PyObject *name = PyObject_GetAttr((PyObject *)Py_TYPE(self), str_name);
    if (name == NULL)
        return NULL;
    PyObject *r = PyUnicode_FromFormat(
        "<%U %s>", name, self->triggered ? "triggered" : "pending");
    Py_DECREF(name);
    return r;
}

static PyMethodDef event_methods[] = {
    {"succeed", (PyCFunction)(void (*)(void))event_succeed,
     METH_FASTCALL | METH_KEYWORDS,
     "Trigger successfully with an optional payload."},
    {"fail", (PyCFunction)(void (*)(void))event_fail,
     METH_VARARGS | METH_KEYWORDS,
     "Trigger as failed; waiters receive ``exc``."},
    {"add_callback", (PyCFunction)event_add_callback, METH_O,
     "Register ``fn(event)``; fires immediately if already triggered."},
    {NULL}
};

static PyMemberDef event_members[] = {
    {"engine", T_OBJECT, offsetof(EventObject, engine), READONLY},
    {"_triggered", T_BOOL, offsetof(EventObject, triggered), READONLY},
    {NULL}
};

static PyGetSetDef event_getset[] = {
    {"triggered", (getter)event_get_triggered, NULL, NULL, NULL},
    {"ok", (getter)event_get_ok, NULL,
     "True when triggered via ``succeed``.  Raises if untriggered.", NULL},
    {"value", (getter)event_get_value, NULL,
     "Payload passed to ``succeed``, or the exception given to ``fail``.",
     NULL},
    {"_ok", (getter)event_get_ok_field, NULL, NULL, NULL},
    {"_value", (getter)event_get_value_field, NULL, NULL, NULL},
    {"_callbacks", (getter)event_get_callbacks, NULL, NULL, NULL},
    {NULL}
};

static PyTypeObject EventType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simcore._ccore.SimEvent",
    .tp_basicsize = sizeof(EventObject),
    .tp_dealloc = (destructor)event_dealloc,
    .tp_repr = (reprfunc)event_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A one-shot condition: untriggered until succeed() or fail().",
    .tp_traverse = (traverseproc)event_traverse,
    .tp_clear = (inquiry)event_clear,
    .tp_methods = event_methods,
    .tp_members = event_members,
    .tp_getset = event_getset,
    .tp_init = (initproc)event_tp_init,
    .tp_new = event_tp_new,
};

/* ------------------------------------------------------------------ */
/* SimProcess: the resume core                                         */

static int
process_traverse(ProcessObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->gen);
    Py_VISIT(self->name);
    Py_VISIT(self->waiting_on);
    Py_VISIT(self->resume_scheduled);
    return event_traverse((EventObject *)self, visit, arg);
}

static int
process_clear(ProcessObject *self)
{
    Py_CLEAR(self->gen);
    Py_CLEAR(self->name);
    Py_CLEAR(self->waiting_on);
    Py_CLEAR(self->resume_scheduled);
    return event_clear((EventObject *)self);
}

static void
process_dealloc(ProcessObject *self)
{
    PyTypeObject *tp = Py_TYPE(self);
    PyObject_GC_UnTrack(self);
    Py_TRASHCAN_BEGIN(self, process_dealloc)
    process_clear(self);
    tp->tp_free((PyObject *)self);
    Py_TRASHCAN_END
}

/* The exception being raised, normalised and with its traceback
 * attached, as an ``except ... as error`` clause would bind it. */
static PyObject *
fetch_exception(void)
{
    PyObject *type, *value, *tb;
    PyErr_Fetch(&type, &value, &tb);
    PyErr_NormalizeException(&type, &value, &tb);
    if (tb != NULL) {
        PyException_SetTraceback(value, tb);
        Py_DECREF(tb);
    }
    Py_DECREF(type);
    return value;
}

/* The generator raised (an error is set): its return value succeeds the
 * process, an Exception (Interrupted included) fails it, anything else
 * (KeyboardInterrupt, SystemExit, ...) propagates. */
static int
process_finish_on_error(ProcessObject *self)
{
    if (PyErr_ExceptionMatches(PyExc_StopIteration)) {
        PyObject *stop = fetch_exception();
        PyObject *value = ((PyStopIterationObject *)stop)->value;
        value = value ? value : Py_None;
        Py_INCREF(value);
        Py_DECREF(stop);
        int r = event_trigger((EventObject *)self, 1, value);
        Py_DECREF(value);
        return r;
    }
    if (!PyErr_ExceptionMatches(PyExc_Exception))
        return -1;
    PyObject *error = fetch_exception();
    int r = event_trigger((EventObject *)self, 0, error);
    Py_DECREF(error);
    return r;
}

/* Resume the generator with a value (exc NULL) or a throw, then
 * re-suspend on what it yields; loops while the yielded event has
 * already fired.  Borrowed arguments. */
static PyObject *
process_advance_impl(ProcessObject *self, PyObject *value, PyObject *exc)
{
    EventObject *ev = (EventObject *)self;
    PyObject *gen = self->gen;
    if (gen == NULL) {
        PyErr_SetString(PyExc_AttributeError, "gen");
        return NULL;
    }
    if (Py_EnterRecursiveCall(" while resuming a process"))
        return NULL;
    Py_INCREF(gen);
    Py_INCREF(value);
    Py_XINCREF(exc);
    PyObject *result = NULL;
    for (;;) {
        PyObject *target;
        if (exc != NULL) {
            target = PyObject_CallMethodOneArg(gen, str_throw, exc);
            Py_CLEAR(exc);
            if (target == NULL) {
                if (process_finish_on_error(self) < 0)
                    goto done;
                break;
            }
        }
        else if (Py_TYPE(gen)->tp_as_async != NULL
                 && Py_TYPE(gen)->tp_as_async->am_send != NULL) {
            /* generators, coroutines and the frame path's iterators */
            PySendResult sent = PyIter_Send(gen, value, &target);
            if (sent == PYGEN_RETURN) {
                int r = event_trigger(ev, 1, target);
                Py_DECREF(target);
                if (r < 0)
                    goto done;
                break;
            }
            if (sent == PYGEN_ERROR) {
                if (process_finish_on_error(self) < 0)
                    goto done;
                break;
            }
        }
        else {
            target = PyObject_CallMethodOneArg(gen, str_send, value);
            if (target == NULL) {
                if (process_finish_on_error(self) < 0)
                    goto done;
                break;
            }
        }
        Py_CLEAR(value);

        if (!Event_Check(target)) {
            PyObject *closed = PyObject_CallMethodNoArgs(gen, str_close);
            if (closed == NULL) {
                Py_DECREF(target);
                goto done;
            }
            Py_DECREF(closed);
            PyObject *name = self->name ? self->name : Py_None;
            PyObject *error = PyObject_CallFunction(
                SimulationError, "N",
                PyUnicode_FromFormat(
                    "process %R yielded %R; expected a SimEvent",
                    name, target));
            Py_DECREF(target);
            if (error == NULL)
                goto done;
            int r = event_fail_impl(ev, error);
            Py_DECREF(error);
            if (r < 0)
                goto done;
            break;
        }
        EventObject *waited = (EventObject *)target;
        if (!waited->triggered) {
            Py_XSETREF(self->waiting_on, target);   /* steals target */
            if (event_append_waiter(waited, (PyObject *)self) < 0)
                goto done;
            break;
        }
        /* Already fired: resume at once, as add_callback would. */
        if (ev->triggered) {
            Py_DECREF(target);
            break;
        }
        Py_CLEAR(self->waiting_on);
        PyObject *payload = waited->value ? waited->value : Py_None;
        Py_INCREF(payload);
        if (waited->ok) {
            value = payload;
        }
        else {
            value = Py_NewRef(Py_None);
            exc = payload;
        }
        Py_DECREF(target);
    }
    result = Py_NewRef(Py_None);
done:
    Py_XDECREF(value);
    Py_XDECREF(exc);
    Py_DECREF(gen);
    Py_LeaveRecursiveCall();
    return result;
}

static PyObject *
process_advance(ProcessObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "_advance() takes exactly 2 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    return process_advance_impl(self, args[0],
                                args[1] == Py_None ? NULL : args[1]);
}

static PyObject *
process_first_resume(ProcessObject *self, PyObject *Py_UNUSED(ignored))
{
    Py_CLEAR(self->resume_scheduled);
    self->started = 1;
    return process_advance_impl(self, Py_None, NULL);
}

static PyObject *
process_on_wait_complete_impl(ProcessObject *self, EventObject *event)
{
    if (((EventObject *)self)->triggered)
        Py_RETURN_NONE;
    Py_CLEAR(self->waiting_on);
    PyObject *payload = event->value ? event->value : Py_None;
    if (event->ok)
        return process_advance_impl(self, payload, NULL);
    return process_advance_impl(self, Py_None, payload);
}

static PyObject *
process_on_wait_complete(ProcessObject *self, PyObject *event)
{
    if (!Event_Check(event)) {
        PyErr_Format(PyExc_TypeError,
                     "_on_wait_complete() needs a SimEvent, got %R", event);
        return NULL;
    }
    Py_INCREF(event);   /* the waiter list that held it may be dropped */
    PyObject *r = process_on_wait_complete_impl(self, (EventObject *)event);
    Py_DECREF(event);
    return r;
}

static PyMethodDef process_methods[] = {
    {"_first_resume", (PyCFunction)process_first_resume, METH_NOARGS, NULL},
    {"_on_wait_complete", (PyCFunction)process_on_wait_complete, METH_O,
     NULL},
    {"_advance", (PyCFunction)(void (*)(void))process_advance, METH_FASTCALL,
     "Resume the generator with a value or throw, then re-suspend."},
    {NULL}
};

static PyMemberDef process_members[] = {
    {"gen", T_OBJECT, offsetof(ProcessObject, gen), 0},
    {"name", T_OBJECT, offsetof(ProcessObject, name), 0},
    {"_waiting_on", T_OBJECT, offsetof(ProcessObject, waiting_on), 0},
    {"_resume_scheduled", T_OBJECT,
     offsetof(ProcessObject, resume_scheduled), 0},
    {"_started", T_BOOL, offsetof(ProcessObject, started), 0},
    {NULL}
};

static PyTypeObject ProcessType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simcore._ccore.SimProcess",
    .tp_basicsize = sizeof(ProcessObject),
    .tp_dealloc = (destructor)process_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The resume core of a generator process.",
    .tp_traverse = (traverseproc)process_traverse,
    .tp_clear = (inquiry)process_clear,
    .tp_methods = process_methods,
    .tp_members = process_members,
    .tp_base = &EventType,
};

/* ------------------------------------------------------------------ */
/* EngineCore                                                          */

static int
engine_tp_init(EngineObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"start_time", NULL};
    PyObject *start = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O:EngineCore", kwlist,
                                     &start))
        return -1;
    PyObject *now = start ? PyNumber_Float(start) : PyFloat_FromDouble(0.0);
    if (now == NULL)
        return -1;
    Py_XSETREF(self->now, now);
    PyObject *heap = PyList_New(0);
    if (heap == NULL)
        return -1;
    Py_XSETREF(self->heap, heap);
    self->seq = 0;
    self->processed = 0;
    self->pending = 0;
    return 0;
}

static int
engine_traverse(EngineObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->now);
    Py_VISIT(self->heap);
    Py_VISIT(self->thash);
    return 0;
}

static int
engine_clear(EngineObject *self)
{
    Py_CLEAR(self->now);
    Py_CLEAR(self->heap);
    Py_CLEAR(self->thash);
    return 0;
}

static void
engine_dealloc(EngineObject *self)
{
    PyTypeObject *tp = Py_TYPE(self);
    PyObject_GC_UnTrack(self);
    Py_TRASHCAN_BEGIN(self, engine_dealloc)
    engine_clear(self);
    tp->tp_free((PyObject *)self);
    Py_TRASHCAN_END
}

static int
engine_ready(EngineObject *self)
{
    if (self->now == NULL || self->heap == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "EngineCore.__init__ was not called");
        return -1;
    }
    return 0;
}

/* Split (fn, *args, daemon=False) off a schedule call's arguments. */
static int
parse_schedule(const char *what, PyObject *const *args, Py_ssize_t nargs,
               PyObject *kwnames, PyObject **fn, PyObject **fargs,
               int *daemon)
{
    if (nargs < 2) {
        PyErr_Format(PyExc_TypeError,
                     "%s() missing required positional arguments", what);
        return -1;
    }
    *daemon = 0;
    if (kwnames != NULL) {
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(kwnames); i++) {
            PyObject *key = PyTuple_GET_ITEM(kwnames, i);
            if (PyUnicode_CompareWithASCIIString(key, "daemon") != 0) {
                PyErr_Format(PyExc_TypeError,
                             "%s() got an unexpected keyword argument '%S'",
                             what, key);
                return -1;
            }
            int truth = PyObject_IsTrue(args[nargs + i]);
            if (truth < 0)
                return -1;
            *daemon = truth;
        }
    }
    *fn = args[1];
    *fargs = PyTuple_New(nargs - 2);
    if (*fargs == NULL)
        return -1;
    for (Py_ssize_t i = 2; i < nargs; i++) {
        Py_INCREF(args[i]);
        PyTuple_SET_ITEM(*fargs, i - 2, args[i]);
    }
    return 0;
}

/* Push a handle for fn(*fargs) at `when` (new reference). */
static PyObject *
engine_push(EngineObject *self, PyObject *when, PyObject *fn,
            PyObject *fargs, int daemon)
{
    PyObject *seq = PyLong_FromLongLong(self->seq);
    if (seq == NULL)
        return NULL;
    self->seq += 1;
    HandleObject *handle = handle_new_raw(
        when, seq, fn, fargs, daemon, daemon ? NULL : self);
    if (handle == NULL) {
        Py_DECREF(seq);
        return NULL;
    }
    PyObject *item = PyTuple_New(3);
    if (item == NULL) {
        Py_DECREF(seq);
        Py_DECREF(handle);
        return NULL;
    }
    Py_INCREF(when);
    PyTuple_SET_ITEM(item, 0, when);
    PyTuple_SET_ITEM(item, 1, seq);
    Py_INCREF(handle);
    PyTuple_SET_ITEM(item, 2, (PyObject *)handle);
    int r = heap_push(self->heap, item);
    Py_DECREF(item);
    if (r < 0) {
        Py_DECREF(handle);
        return NULL;
    }
    return (PyObject *)handle;
}

/* Push fn(*fargs) ``delay`` seconds from now (new reference to the
 * handle): EngineCore.schedule once its arguments are checked. */
static PyObject *
engine_push_after(EngineObject *self, PyObject *delay, PyObject *fn,
                  PyObject *fargs, int daemon)
{
    if (!daemon)
        self->pending += 1;
    PyObject *when;
    if (PyFloat_CheckExact(self->now) && PyFloat_CheckExact(delay))
        when = PyFloat_FromDouble(PyFloat_AS_DOUBLE(self->now)
                                  + PyFloat_AS_DOUBLE(delay));
    else
        when = PyNumber_Add(self->now, delay);
    if (when == NULL)
        return NULL;
    PyObject *handle = engine_push(self, when, fn, fargs, daemon);
    Py_DECREF(when);
    return handle;
}

/* SimulationError unless ``time`` is at or after now (less 1e-12): the
 * check schedule_at makes before anything else.  0 or -1. */
static int
engine_check_at(EngineObject *self, PyObject *time)
{
    int past = in_past(time, self->now);
    if (past <= 0)
        return past;
    PyObject *msg = PyUnicode_FromFormat(
        "cannot schedule event in the past: t=%S < now=%S", time,
        self->now);
    if (msg != NULL) {
        PyErr_SetObject(SimulationError, msg);
        Py_DECREF(msg);
    }
    return -1;
}

/* Push fn(*fargs) at ``time`` clamped to now (new reference to the
 * handle): EngineCore.schedule_at once engine_check_at passed. */
static PyObject *
engine_push_at(EngineObject *self, PyObject *time, PyObject *fn,
               PyObject *fargs, int daemon)
{
    if (!daemon)
        self->pending += 1;
    int later = num_lt(self->now, time);   /* time > now */
    if (later < 0)
        return NULL;
    return engine_push(self, later ? time : self->now, fn, fargs, daemon);
}

static PyObject *
engine_schedule(EngineObject *self, PyObject *const *args, Py_ssize_t nargs,
                PyObject *kwnames)
{
    PyObject *fn, *fargs;
    int daemon;
    if (engine_ready(self) < 0)
        return NULL;
    if (nargs < 1) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule() missing required positional arguments");
        return NULL;
    }
    PyObject *delay = args[0];
    int negative = PyFloat_CheckExact(delay)
        ? PyFloat_AS_DOUBLE(delay) < 0.0
        : PyObject_RichCompareBool(delay, int_zero, Py_LT);
    if (negative < 0)
        return NULL;
    if (negative) {
        PyObject *msg = PyUnicode_FromFormat("negative delay: %S", delay);
        if (msg != NULL) {
            PyErr_SetObject(SimulationError, msg);
            Py_DECREF(msg);
        }
        return NULL;
    }
    if (parse_schedule("schedule", args, nargs, kwnames, &fn, &fargs,
                       &daemon) < 0)
        return NULL;
    PyObject *handle = engine_push_after(self, delay, fn, fargs, daemon);
    Py_DECREF(fargs);
    return handle;
}

static PyObject *
engine_schedule_at(EngineObject *self, PyObject *const *args,
                   Py_ssize_t nargs, PyObject *kwnames)
{
    PyObject *fn, *fargs;
    int daemon;
    if (engine_ready(self) < 0)
        return NULL;
    if (nargs < 1) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_at() missing required positional arguments");
        return NULL;
    }
    if (engine_check_at(self, args[0]) < 0)
        return NULL;
    if (parse_schedule("schedule_at", args, nargs, kwnames, &fn, &fargs,
                       &daemon) < 0)
        return NULL;
    PyObject *handle = engine_push_at(self, args[0], fn, fargs, daemon);
    Py_DECREF(fargs);
    return handle;
}

static int
sim_error(const char *message)
{
    PyErr_SetString(SimulationError, message);
    return -1;
}

/* The heap item ``item`` (a 3-tuple whose handle is live) fires: the
 * non-daemon count, the clock (unless ``same_instant``: a batch member
 * keeps the clock its first event set), the dispatch counter, the trace
 * hash, then the callback.  Steals ``item``; -1 on error. */
static int
engine_dispatch(EngineObject *self, PyObject *item, int same_instant)
{
    PyObject *when = PyTuple_GET_ITEM(item, 0);
    HandleObject *handle = (HandleObject *)PyTuple_GET_ITEM(item, 2);
    if (!handle->daemon) {
        self->pending -= 1;
        Py_CLEAR(handle->engine);   /* fired: a late cancel is a no-op */
    }
    if (!same_instant) {
        Py_INCREF(when);
        Py_SETREF(self->now, when);
    }
    self->processed += 1;
    PyObject *fn = handle->fn;
    PyObject *fargs = handle->args;
    Py_INCREF(fn);
    Py_INCREF(fargs);
    if (self->thash != NULL && self->thash != Py_None) {
        PyObject *r = PyObject_CallMethodObjArgs(
            self->thash, str_update, when, PyTuple_GET_ITEM(item, 1), fn,
            NULL);
        if (r == NULL) {
            Py_DECREF(fn);
            Py_DECREF(fargs);
            Py_DECREF(item);
            return -1;
        }
        Py_DECREF(r);
    }
    PyObject *r = PyObject_Vectorcall(
        fn, &PyTuple_GET_ITEM(fargs, 0), PyTuple_GET_SIZE(fargs), NULL);
    Py_DECREF(fn);
    Py_DECREF(fargs);
    Py_DECREF(item);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* A heap item as the engine pushes it; 0 with TypeError otherwise. */
static int
heap_item_ok(PyObject *item)
{
    if (PyTuple_CheckExact(item) && PyTuple_GET_SIZE(item) == 3
        && Py_TYPE(PyTuple_GET_ITEM(item, 2)) == &HandleType)
        return 1;
    PyErr_SetString(PyExc_TypeError, "engine heap holds a foreign item");
    return 0;
}

#define ITEM_CANCELLED(item) \
    (((HandleObject *)PyTuple_GET_ITEM(item, 2))->cancelled)

/* Pop the smallest live item (new reference); NULL with no error set
 * when the heap runs out. */
static PyObject *
heap_pop_live(PyObject *heap)
{
    for (;;) {
        PyObject *item = heap_pop(heap);
        if (item == NULL)
            return NULL;
        if (!heap_item_ok(item)) {
            Py_DECREF(item);
            return NULL;
        }
        if (!ITEM_CANCELLED(item))
            return item;
        Py_DECREF(item);
    }
}

/* Pop and fire one due handle (the step the drain repeats).  Returns 1
 * when one fired, 0 when the heap is empty, -1 on error. */
static int
engine_fire_next(EngineObject *self)
{
    PyObject *item = heap_pop_live(self->heap);
    if (item == NULL)
        return PyErr_Occurred() ? -1 : 0;
    int past = in_past(PyTuple_GET_ITEM(item, 0), self->now);
    if (past != 0) {
        Py_DECREF(item);
        return past < 0 ? -1 : sim_error(
            "heap yielded an event from the past");
    }
    return engine_dispatch(self, item, 0) < 0 ? -1 : 1;
}

/* a == b as Python evaluates it; -1 on error */
static int
num_eq(PyObject *a, PyObject *b)
{
    if (PyFloat_CheckExact(a) && PyFloat_CheckExact(b))
        return PyFloat_AS_DOUBLE(a) == PyFloat_AS_DOUBLE(b);
    PyObject *r = PyObject_RichCompare(a, b, Py_EQ);
    if (r == NULL)
        return -1;
    int truth = PyObject_IsTrue(r);
    Py_DECREF(r);
    return truth;
}

/* Engine.run's drain without a horizon: while a non-daemon event is
 * pending, fire the next instant's first event, then everything else
 * already due at that instant (a same-instant batch, without touching
 * the clock again).  Counts the batches into out[3]. */
static int
engine_drain_all(EngineObject *self, long long *out)
{
    PyObject *heap = self->heap;
    while (self->pending > 0 && PyList_GET_SIZE(heap) > 0) {
        PyObject *item = heap_pop_live(heap);
        if (item == NULL) {
            if (PyErr_Occurred())
                return -1;
            break;
        }
        PyObject *when = Py_NewRef(PyTuple_GET_ITEM(item, 0));
        int past = in_past(when, self->now);
        if (past != 0) {
            Py_DECREF(item);
            Py_DECREF(when);
            return past < 0 ? -1 : sim_error(
                "heap yielded an event from the past");
        }
        if (engine_dispatch(self, item, 0) < 0) {
            Py_DECREF(when);
            return -1;
        }
        long long in_batch = 1;
        while (PyList_GET_SIZE(heap) > 0 && self->pending > 0) {
            PyObject *top = PyList_GET_ITEM(heap, 0);
            if (!heap_item_ok(top)) {
                Py_DECREF(when);
                return -1;
            }
            int same = num_eq(PyTuple_GET_ITEM(top, 0), when);
            if (same <= 0) {
                if (same < 0) {
                    Py_DECREF(when);
                    return -1;
                }
                break;
            }
            item = heap_pop(heap);
            if (item == NULL) {
                Py_DECREF(when);
                return -1;
            }
            if (ITEM_CANCELLED(item)) {
                Py_DECREF(item);
                continue;
            }
            if (engine_dispatch(self, item, 1) < 0) {
                Py_DECREF(when);
                return -1;
            }
            in_batch += 1;
        }
        Py_DECREF(when);
        out[0] += 1;
        out[1] += in_batch;
        if (in_batch > out[2])
            out[2] = in_batch;
    }
    return 0;
}

/* Engine.run's drain up to ``until``: fire every event at or before it
 * (daemon housekeeping included), then advance the clock to it. */
static int
engine_drain_to(EngineObject *self, PyObject *until)
{
    PyObject *heap = self->heap;
    while (PyList_GET_SIZE(heap) > 0) {
        PyObject *top = PyList_GET_ITEM(heap, 0);
        if (!heap_item_ok(top))
            return -1;
        PyObject *item;
        if (ITEM_CANCELLED(top)) {
            item = heap_pop(heap);
            if (item == NULL)
                return -1;
            Py_DECREF(item);
            continue;
        }
        PyObject *when = PyTuple_GET_ITEM(top, 0);
        int later = PyFloat_CheckExact(when) && PyFloat_CheckExact(until)
            ? PyFloat_AS_DOUBLE(when) > PyFloat_AS_DOUBLE(until)
            : PyObject_RichCompareBool(when, until, Py_GT);
        if (later < 0)
            return -1;
        if (later)
            break;
        item = heap_pop(heap);
        if (item == NULL)
            return -1;
        if (engine_dispatch(self, item, 0) < 0)
            return -1;
    }
    /* max(now, until) */
    int ahead = PyFloat_CheckExact(until) && PyFloat_CheckExact(self->now)
        ? PyFloat_AS_DOUBLE(until) > PyFloat_AS_DOUBLE(self->now)
        : PyObject_RichCompareBool(until, self->now, Py_GT);
    if (ahead < 0)
        return -1;
    if (ahead) {
        Py_INCREF(until);
        Py_SETREF(self->now, until);
    }
    return 0;
}

/* _drain(until): Engine.run's loop; returns the same-instant batch
 * tally (batches, events, largest), zeros with a horizon. */
static PyObject *
engine_drain(EngineObject *self, PyObject *until)
{
    if (engine_ready(self) < 0)
        return NULL;
    long long tally[3] = {0, 0, 0};
    int r = until == Py_None ? engine_drain_all(self, tally)
                             : engine_drain_to(self, until);
    if (r < 0)
        return NULL;
    return Py_BuildValue("(LLL)", tally[0], tally[1], tally[2]);
}

static int
event_is_triggered(PyObject *event)
{
    if (Event_Check(event))
        return ((EventObject *)event)->triggered;
    PyObject *flag = PyObject_GetAttr(event, str_triggered);
    if (flag == NULL)
        return -1;
    int r = PyObject_IsTrue(flag);
    Py_DECREF(flag);
    return r;
}

/* _drain_until(event, limit): dispatch until `event` triggers; raise on
 * a time limit or a drained queue.  The limit and the non-daemon count
 * are checked before every dispatch. */
static PyObject *
engine_drain_until(EngineObject *self, PyObject *const *args,
                   Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "_drain_until() takes exactly 2 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    if (engine_ready(self) < 0)
        return NULL;
    PyObject *event = args[0], *limit = args[1];
    Py_INCREF(event);
    PyObject *result = NULL;
    for (;;) {
        int done = event_is_triggered(event);
        if (done < 0)
            goto out;
        if (done)
            break;
        if (limit != Py_None) {
            int reached = PyFloat_CheckExact(self->now)
                && PyFloat_CheckExact(limit)
                ? PyFloat_AS_DOUBLE(self->now) >= PyFloat_AS_DOUBLE(limit)
                : PyObject_RichCompareBool(self->now, limit, Py_GE);
            if (reached < 0)
                goto out;
            if (reached) {
                PyObject *msg = PyUnicode_FromFormat(
                    "time limit %Ss reached before event", limit);
                if (msg != NULL) {
                    PyErr_SetObject(SimulationError, msg);
                    Py_DECREF(msg);
                }
                goto out;
            }
        }
        if (self->pending <= 0) {
            sim_error("event queue drained (only daemon housekeeping left) "
                      "before event triggered");
            goto out;
        }
        int fired = engine_fire_next(self);
        if (fired < 0)
            goto out;
        if (fired == 0) {
            sim_error("event queue drained before event triggered");
            goto out;
        }
    }
    result = Py_NewRef(Py_None);
out:
    Py_DECREF(event);
    return result;
}

static PyObject *
engine_get_now(EngineObject *self, void *closure)
{
    if (engine_ready(self) < 0)
        return NULL;
    return Py_NewRef(self->now);
}

static int
engine_set_now(EngineObject *self, PyObject *value, void *closure)
{
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete _now");
        return -1;
    }
    Py_INCREF(value);
    Py_XSETREF(self->now, value);
    return 0;
}

static PyMethodDef engine_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))engine_schedule,
     METH_FASTCALL | METH_KEYWORDS,
     "Schedule ``fn(*args)`` after ``delay`` seconds."},
    {"schedule_at", (PyCFunction)(void (*)(void))engine_schedule_at,
     METH_FASTCALL | METH_KEYWORDS,
     "Schedule ``fn(*args)`` at absolute simulation time ``time``."},
    {"_drain_until", (PyCFunction)(void (*)(void))engine_drain_until,
     METH_FASTCALL, "Dispatch events until ``event`` triggers."},
    {"_drain", (PyCFunction)engine_drain, METH_O,
     "Engine.run's drain; returns the same-instant batch tally."},
    {NULL}
};

static PyMemberDef engine_members[] = {
    {"_heap", T_OBJECT, offsetof(EngineObject, heap), READONLY},
    {"_thash", T_OBJECT, offsetof(EngineObject, thash), 0},
    {"_seq", T_LONGLONG, offsetof(EngineObject, seq), 0},
    {"_processed", T_LONGLONG, offsetof(EngineObject, processed), 0},
    {"_non_daemon_pending", T_PYSSIZET, offsetof(EngineObject, pending), 0},
    {NULL}
};

static PyGetSetDef engine_getset[] = {
    {"now", (getter)engine_get_now, NULL,
     "Current simulation time in seconds.", NULL},
    {"_now", (getter)engine_get_now, (setter)engine_set_now, NULL, NULL},
    {NULL}
};

static PyTypeObject EngineType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simcore._ccore.EngineCore",
    .tp_basicsize = sizeof(EngineObject),
    .tp_dealloc = (destructor)engine_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The engine's clock, heap and dispatch core.",
    .tp_traverse = (traverseproc)engine_traverse,
    .tp_clear = (inquiry)engine_clear,
    .tp_methods = engine_methods,
    .tp_members = engine_members,
    .tp_getset = engine_getset,
    .tp_init = (initproc)engine_tp_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* the OS scheduler's pass and crossings (they drive the types above)  */

#include "../osmodel/_sched.c"

/* ------------------------------------------------------------------ */
/* the network frame path (it drives the types above)                  */

#include "../osmodel/_frames.c"

/* ------------------------------------------------------------------ */
/* the fleet kernels: event loop, column sampler, fault-draw batch     */

#include "../fleet/_cloop.c"

/* ------------------------------------------------------------------ */
/* module                                                              */

static PyObject *
noop(PyObject *self, PyObject *args)
{
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"_noop", (PyCFunction)noop, METH_VARARGS,
     "What a cancelled handle calls: nothing."},
    {NULL}
};

static struct PyModuleDef ccore_module = {
    PyModuleDef_HEAD_INIT, "_ccore",
    "Compiled event core of repro.simcore (oracle: tests/_oracle_core.py).",
    -1, module_methods,
};

PyMODINIT_FUNC
PyInit__ccore(void)
{
    if (PyType_Ready(&HandleType) < 0 || PyType_Ready(&EventType) < 0
        || PyType_Ready(&ProcessType) < 0 || PyType_Ready(&EngineType) < 0)
        return NULL;
    PyObject *heapq = PyImport_ImportModule("_heapq");
    if (heapq == NULL)
        return NULL;
    heappush_fn = PyObject_GetAttrString(heapq, "heappush");
    heappop_fn = PyObject_GetAttrString(heapq, "heappop");
    Py_DECREF(heapq);
    if (heappush_fn == NULL || heappop_fn == NULL)
        return NULL;
    PyObject *errors = PyImport_ImportModule("repro.errors");
    if (errors == NULL)
        return NULL;
    SimulationError = PyObject_GetAttrString(errors, "SimulationError");
    Py_DECREF(errors);
    if (SimulationError == NULL)
        return NULL;
    str_update = PyUnicode_InternFromString("update");
    str_throw = PyUnicode_InternFromString("throw");
    str_close = PyUnicode_InternFromString("close");
    str_send = PyUnicode_InternFromString("send");
    str_triggered = PyUnicode_InternFromString("_triggered");
    str_name = PyUnicode_InternFromString("__name__");
    float_eps = PyFloat_FromDouble(1e-12);
    int_zero = PyLong_FromLong(0);
    empty_args = PyTuple_New(0);
    if (!str_update || !str_throw || !str_close || !str_send
        || !str_triggered || !str_name || !float_eps || !int_zero
        || !empty_args)
        return NULL;
    PyObject *m = PyModule_Create(&ccore_module);
    if (m == NULL)
        return NULL;
    noop_fn = PyObject_GetAttrString(m, "_noop");
    if (noop_fn == NULL)
        goto fail;
    if (PyModule_AddObjectRef(m, "EventHandle", (PyObject *)&HandleType) < 0
        || PyModule_AddObjectRef(m, "SimEvent", (PyObject *)&EventType) < 0
        || PyModule_AddObjectRef(m, "SimProcess",
                                 (PyObject *)&ProcessType) < 0
        || PyModule_AddObjectRef(m, "EngineCore",
                                 (PyObject *)&EngineType) < 0
        || sched_module_init(m) < 0 || frames_module_init(m) < 0
        || cloop_module_init(m) < 0)
        goto fail;
    return m;
fail:
    Py_DECREF(m);
    return NULL;
}
