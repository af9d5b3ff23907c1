/* The network frame path: the TCP frame loops, the vNIC's per-frame
 * service and the NIC's transmit.
 *
 * Not a translation unit of its own: simcore/_ccore.c includes this file
 * after the event core's types and the scheduler's crossings, so the
 * frame path builds events, handles and processes without calling back
 * into Python.  Each piece re-encodes a Python body of the test oracle
 * (tests/_oracle_core.py), which the test suite runs in its place:
 *
 *   SendFrames   TcpSocket.send's frame loop (osmodel/netstack.py);
 *   RecvFrames   TcpSocket.recv's frame loop;
 *   Delivery     send's per-frame ``lambda p=payload, pr=peer:
 *                pr._deliver(p)``; its __qualname__ is the lambda's
 *                (``TcpSocket.send.<locals>.<lambda>``), so the trace
 *                hash names its dispatch as the oracle's;
 *   VnicService  VirtualNic's per-frame service (virt/vnic.py), one per
 *                frame, run inside a SimProcess named ``<vm>.vnic``;
 *   vnic_transmit, nic_transmit
 *                VirtualNic.transmit and Nic.transmit (hardware/nic.py).
 *
 * The three iterators implement am_send (so ``yield from`` and the
 * process core drive them without a method call) and send/throw/close,
 * as generators do.
 *
 * The invariant: every engine schedule happens in the same count, order,
 * time, seq and callback name as in the Python bodies; every number
 * keeps its Python type and every expression is evaluated in the same
 * order (the generic number protocol, so the bits match); error messages
 * and the METRICS calls are the same.  What a Python body reaches
 * through an attribute stays an attribute call: the stack's charge
 * callable (and so scheduler.submit), vcpu.charge_host_native,
 * device.transmit, METRICS.inc/observe.  The short cuts are the receive
 * queue's: a delivery into an exact TcpSocket whose rx is an exact,
 * uncapped Store hands the payload to the oldest live getter or queues
 * it, as Store.put does, without building put's unobserved completion
 * event; the receive loop's get() of an exact Store is Store.get's body.
 */

static PyObject *NetworkError;          /* repro.errors.NetworkError */
static PyObject *int_one;
static PyObject *float_zero;            /* 0.0: a process's first resume */
static PyObject *float_vmm_inject;      /* 20e-6: the VMM's injection delay */
static PyObject *kw_remote_delivered;   /* ("remote", "on_delivered") */
static PyObject *kw_delivered;          /* ("on_delivered",) */

/* Imported on first use (their modules import this one). */
static PyTypeObject *store_class;       /* repro.simcore.resources.Store */
static PyTypeObject *socket_class;      /* repro.osmodel.netstack.TcpSocket */
static PyTypeObject *process_class;     /* repro.simcore.process.SimProcess */
static PyObject *metrics;               /* repro.obs.metrics.METRICS */
static PyObject *mix_vmm_service;       /* repro.hardware.cpu.MIX_VMM_SERVICE */

static PyObject *fs_stats, *fs_peer, *fs_spec, *fs_engine, *fs_name,
    *fs_tx_busy_until, *fs_frames_sent, *fs_payload_bytes_sent,
    *fs_busy_seconds, *fs_frames_received, *fs_payload_bytes_received,
    *fs_mtu_payload_bytes, *fs_frame_overhead_bytes, *fs_line_rate_bps,
    *fs_link_latency_s, *fs_enabled, *fs_inc, *fs_observe, *fs_hw_frames,
    *fs_hw_payload_bytes, *fs_hw_frame_wire_s, *fs_succeed, *fs_fail,
    *fs_vm, *fs_host_kernel, *fs_net, *fs_guest_net,
    *fs_process_name, *fs_frames, *fs_payload_bytes, *fs_emulation_cycles,
    *fs_mode, *fs_per_packet_cycles, *fs_vcpu, *fs_charge_host_native,
    *fs_timeout, *fs_host_machine, *fs_nic, *fs_transmit, *fs_rx,
    *fs_capacity, *fs_getters, *fs_items, *fs_popleft, *fs_append, *fs_put,
    *fs_deliver, *fs_stack, *fs_packets_sent, *fs_bytes_sent,
    *fs_packets_received, *fs_bytes_received, *fs_get,
    *fs_putters, *fs_drain_putters;

static const struct { PyObject **slot; const char *text; } frame_names[] = {
    {&fs_stats, "stats"}, {&fs_peer, "peer"}, {&fs_spec, "spec"},
    {&fs_engine, "engine"}, {&fs_name, "name"},
    {&fs_tx_busy_until, "_tx_busy_until"},
    {&fs_frames_sent, "frames_sent"},
    {&fs_payload_bytes_sent, "payload_bytes_sent"},
    {&fs_busy_seconds, "busy_seconds"},
    {&fs_frames_received, "frames_received"},
    {&fs_payload_bytes_received, "payload_bytes_received"},
    {&fs_mtu_payload_bytes, "mtu_payload_bytes"},
    {&fs_frame_overhead_bytes, "frame_overhead_bytes"},
    {&fs_line_rate_bps, "line_rate_bps"},
    {&fs_link_latency_s, "link_latency_s"}, {&fs_enabled, "enabled"},
    {&fs_inc, "inc"}, {&fs_observe, "observe"},
    {&fs_hw_frames, "hw.nic.frames"},
    {&fs_hw_payload_bytes, "hw.nic.payload_bytes"},
    {&fs_hw_frame_wire_s, "hw.nic.frame_wire_s"},
    {&fs_succeed, "succeed"}, {&fs_fail, "fail"}, {&fs_vm, "vm"},
    {&fs_host_kernel, "host_kernel"}, {&fs_net, "net"},
    {&fs_guest_net, "guest_net"}, {&fs_process_name, "_process_name"},
    {&fs_frames, "frames"}, {&fs_payload_bytes, "payload_bytes"},
    {&fs_emulation_cycles, "emulation_cycles"}, {&fs_mode, "mode"},
    {&fs_per_packet_cycles, "per_packet_cycles"}, {&fs_vcpu, "vcpu"},
    {&fs_charge_host_native, "charge_host_native"},
    {&fs_timeout, "timeout"}, {&fs_host_machine, "host_machine"},
    {&fs_nic, "nic"}, {&fs_transmit, "transmit"}, {&fs_rx, "rx"},
    {&fs_capacity, "capacity"}, {&fs_getters, "_getters"},
    {&fs_items, "_items"}, {&fs_popleft, "popleft"},
    {&fs_append, "append"}, {&fs_put, "put"}, {&fs_deliver, "_deliver"},
    {&fs_stack, "stack"}, {&fs_packets_sent, "packets_sent"},
    {&fs_bytes_sent, "bytes_sent"},
    {&fs_packets_received, "packets_received"},
    {&fs_bytes_received, "bytes_received"},
    {&fs_get, "get"}, {&fs_putters, "_putters"},
    {&fs_drain_putters, "_drain_putters"},
    {NULL, NULL},
};

/* ------------------------------------------------------------------ */
/* helpers                                                             */

static PyObject *
import_attr(const char *module, const char *name)
{
    PyObject *mod = PyImport_ImportModule(module);
    if (mod == NULL)
        return NULL;
    PyObject *value = PyObject_GetAttrString(mod, name);
    Py_DECREF(mod);
    return value;
}

/* The classes and objects of modules that import this one, on the
 * frame path's first use.  0 or -1. */
static int
frames_import(void)
{
    if (mix_vmm_service != NULL)
        return 0;
    PyObject *store = import_attr("repro.simcore.resources", "Store");
    PyObject *sock = import_attr("repro.osmodel.netstack", "TcpSocket");
    PyObject *proc = import_attr("repro.simcore.process", "SimProcess");
    PyObject *registry = import_attr("repro.obs.metrics", "METRICS");
    PyObject *mix = import_attr("repro.hardware.cpu", "MIX_VMM_SERVICE");
    if (store == NULL || sock == NULL || proc == NULL || registry == NULL
        || mix == NULL)
        goto fail;
    if (!PyType_Check(store) || !PyType_Check(sock) || !PyType_Check(proc)
        || !PyType_IsSubtype((PyTypeObject *)proc, &ProcessType)) {
        PyErr_SetString(PyExc_TypeError, "frame path: unexpected classes");
        goto fail;
    }
    store_class = (PyTypeObject *)store;
    socket_class = (PyTypeObject *)sock;
    process_class = (PyTypeObject *)proc;
    metrics = registry;
    mix_vmm_service = mix;
    return 0;
fail:
    Py_XDECREF(store);
    Py_XDECREF(sock);
    Py_XDECREF(proc);
    Py_XDECREF(registry);
    Py_XDECREF(mix);
    return -1;
}

/* ``obj.name += amount``, as the augmented assignment evaluates it. */
static int
attr_iadd(PyObject *obj, PyObject *name, PyObject *amount)
{
    PyObject *old = PyObject_GetAttr(obj, name);
    if (old == NULL)
        return -1;
    PyObject *sum = PyNumber_InPlaceAdd(old, amount);
    Py_DECREF(old);
    if (sum == NULL)
        return -1;
    int r = PyObject_SetAttr(obj, name, sum);
    Py_DECREF(sum);
    return r;
}

/* NetworkError(format % object); always NULL. */
static PyObject *
network_error(const char *format, PyObject *a, PyObject *b)
{
    PyObject *msg = PyUnicode_FromFormat(format, a, b);
    if (msg != NULL) {
        PyErr_SetObject(NetworkError, msg);
        Py_DECREF(msg);
    }
    return NULL;
}

/* A fresh SimEvent(engine). */
static PyObject *
new_event(PyObject *engine)
{
    EventObject *event = (EventObject *)EventType.tp_alloc(&EventType, 0);
    if (event != NULL)
        event->engine = Py_NewRef(engine);
    return (PyObject *)event;
}

/* event.succeed(value) / event.fail(exc): the core's trigger for an
 * exact SimEvent, the method otherwise.  0 or -1. */
static int
settle(PyObject *event, int ok, PyObject *value)
{
    if (Py_TYPE(event) == &EventType)
        return ok ? event_trigger((EventObject *)event, 1, value)
                  : event_fail_impl((EventObject *)event, value);
    PyObject *r = PyObject_CallMethodOneArg(event, ok ? fs_succeed : fs_fail,
                                            value);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* The bound method of a core method def (event_methods, ...), as the
 * method descriptor's __get__ builds it. */
#define BOUND(obj, def) PyCFunction_NewEx(&(def), (PyObject *)(obj), NULL)

/* TypeError unless ``engine`` is a ready EngineCore (the frame path
 * schedules through it directly).  0 or -1. */
static int
check_engine(PyObject *engine)
{
    if (!PyObject_TypeCheck(engine, &EngineType)) {
        PyErr_SetString(PyExc_TypeError,
                        "the frame path needs an Engine");
        return -1;
    }
    return engine_ready((EngineObject *)engine);
}

/* engine.process(gen, name): SimProcess.__init__ of repro.simcore.process,
 * whose first resume is scheduled now. */
static PyObject *
start_process(PyObject *engine, PyObject *gen, PyObject *name)
{
    if (check_engine(engine) < 0)
        return NULL;
    ProcessObject *proc =
        (ProcessObject *)process_class->tp_alloc(process_class, 0);
    if (proc == NULL)
        return NULL;
    ((EventObject *)proc)->engine = Py_NewRef(engine);
    proc->gen = Py_NewRef(gen);
    /* name or getattr(gen, "__name__", "process"): the iterators have
     * no __name__ */
    int named = PyObject_IsTrue(name);
    if (named < 0)
        goto fail;
    proc->name = named ? Py_NewRef(name)
                       : PyUnicode_InternFromString("process");
    if (proc->name == NULL)
        goto fail;
    proc->started = 0;
    PyObject *first = BOUND(proc, process_methods[0]);   /* _first_resume */
    if (first == NULL)
        goto fail;
    proc->resume_scheduled = engine_push_after(
        (EngineObject *)engine, float_zero, first, empty_args, 0);
    Py_DECREF(first);
    if (proc->resume_scheduled == NULL)
        goto fail;
    return (PyObject *)proc;
fail:
    Py_DECREF(proc);
    return NULL;
}

/* Set what ``throw(typ[, val[, tb]])`` throws into a generator: 0, or
 * -1 with a TypeError for arguments a generator's throw refuses. */
static int
raise_thrown(PyObject *typ, PyObject *val, PyObject *tb)
{
    if (tb == Py_None)
        tb = NULL;
    else if (tb != NULL && !PyTraceBack_Check(tb)) {
        PyErr_SetString(PyExc_TypeError,
                        "throw() third argument must be a traceback object");
        return -1;
    }
    Py_INCREF(typ);
    Py_XINCREF(val);
    Py_XINCREF(tb);
    if (PyExceptionClass_Check(typ)) {
        PyErr_NormalizeException(&typ, &val, &tb);
    }
    else if (PyExceptionInstance_Check(typ)) {
        if (val != NULL && val != Py_None) {
            PyErr_SetString(PyExc_TypeError,
                            "instance exception may not have a separate "
                            "value");
            goto fail;
        }
        Py_XDECREF(val);
        val = typ;
        typ = Py_NewRef(PyExceptionInstance_Class(typ));
        if (tb == NULL)
            tb = PyException_GetTraceback(val);
    }
    else {
        PyErr_Format(PyExc_TypeError,
                     "exceptions must be classes or instances deriving "
                     "from BaseException, not %s", Py_TYPE(typ)->tp_name);
        goto fail;
    }
    PyErr_Restore(typ, val, tb);
    return 0;
fail:
    Py_DECREF(typ);
    Py_XDECREF(val);
    Py_XDECREF(tb);
    return -1;
}

/* send()'s StopIteration for a return value. */
static void
set_stop(PyObject *value)
{
    if (value == Py_None) {
        PyErr_SetNone(PyExc_StopIteration);
        return;
    }
    PyObject *stop = PyObject_CallOneArg(PyExc_StopIteration, value);
    if (stop != NULL) {
        PyErr_SetObject(PyExc_StopIteration, stop);
        Py_DECREF(stop);
    }
}

/* ------------------------------------------------------------------ */
/* the iterator protocol shared by the three frame iterators           */

#define FR_DONE 0   /* every iterator state below is > 0 */

typedef struct FrameIter FrameIter;
/* One step: resume with ``arg`` (or with ``exc`` thrown in, arg NULL). */
typedef PySendResult (*frame_step)(FrameIter *, PyObject *arg,
                                   PyObject *exc, PyObject **result);

struct FrameIter {
    PyObject_HEAD
    frame_step step;
    char state;
    char running;
};

static PySendResult
frame_resume(FrameIter *self, PyObject *arg, PyObject *exc,
             PyObject **result)
{
    if (self->running) {
        PyErr_SetString(PyExc_ValueError, "generator already executing");
        *result = NULL;
        return PYGEN_ERROR;
    }
    if (self->state == FR_DONE) {
        if (exc != NULL) {
            Py_INCREF(exc);
            PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
            Py_DECREF(exc);
            *result = NULL;
            return PYGEN_ERROR;
        }
        *result = Py_NewRef(Py_None);
        return PYGEN_RETURN;
    }
    self->running = 1;
    PySendResult r = self->step(self, arg, exc, result);
    self->running = 0;
    if (r != PYGEN_NEXT) {
        self->state = FR_DONE;
        /* drop what the finished loop held, as a finished frame does */
        inquiry clear = Py_TYPE(self)->tp_clear;
        if (clear != NULL) {
            PyObject *type, *value, *tb;
            PyErr_Fetch(&type, &value, &tb);
            clear((PyObject *)self);
            PyErr_Restore(type, value, tb);
        }
    }
    return r;
}

static PySendResult
frame_am_send(FrameIter *self, PyObject *arg, PyObject **result)
{
    return frame_resume(self, arg, NULL, result);
}

static PyObject *
frame_iternext(FrameIter *self)
{
    PyObject *result;
    PySendResult r = frame_resume(self, Py_None, NULL, &result);
    if (r == PYGEN_NEXT)
        return result;
    if (r == PYGEN_RETURN) {
        if (result != Py_None)
            set_stop(result);
        Py_DECREF(result);
    }
    return NULL;
}

static PyObject *
frame_finish_call(PySendResult r, PyObject *result)
{
    if (r == PYGEN_NEXT)
        return result;
    if (r == PYGEN_RETURN) {
        set_stop(result);
        Py_DECREF(result);
    }
    return NULL;
}

static PyObject *
frame_send(FrameIter *self, PyObject *arg)
{
    PyObject *result;
    PySendResult r = frame_resume(self, arg, NULL, &result);
    return frame_finish_call(r, result);
}

static PyObject *
frame_throw(FrameIter *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1 || nargs > 3) {
        PyErr_Format(PyExc_TypeError,
                     "throw expected 1 to 3 arguments, got %zd", nargs);
        return NULL;
    }
    if (raise_thrown(args[0], nargs > 1 ? args[1] : NULL,
                     nargs > 2 ? args[2] : NULL) < 0)
        return NULL;
    PyObject *exc = fetch_exception();
    PyObject *result;
    PySendResult r = frame_resume(self, NULL, exc, &result);
    Py_DECREF(exc);
    return frame_finish_call(r, result);
}

static PyObject *
frame_close(FrameIter *self, PyObject *Py_UNUSED(ignored))
{
    /* GeneratorExit at the suspension point: no loop catches it */
    if (self->state != FR_DONE && !self->running) {
        self->state = FR_DONE;
        inquiry clear = Py_TYPE(self)->tp_clear;
        if (clear != NULL)
            clear((PyObject *)self);
    }
    Py_RETURN_NONE;
}

static PyMethodDef frame_methods[] = {
    {"send", (PyCFunction)frame_send, METH_O,
     "Resume with a value; returns the next event to wait on."},
    {"throw", (PyCFunction)(void (*)(void))frame_throw, METH_FASTCALL,
     "Raise an exception at the suspension point."},
    {"close", (PyCFunction)frame_close, METH_NOARGS,
     "Finish the loop at its suspension point."},
    {NULL}
};

static PyAsyncMethods frame_async = {
    .am_send = (sendfunc)frame_am_send,
};

#define FRAME_ITER_TYPE(NAME, OBJ, PREFIX, NEW, DOC)                     \
    static PyTypeObject NAME = {                                          \
        PyVarObject_HEAD_INIT(NULL, 0)                                    \
        .tp_name = "repro.simcore._ccore." #OBJ,                          \
        .tp_basicsize = sizeof(OBJ##Object),                              \
        .tp_dealloc = (destructor)PREFIX##_dealloc,                       \
        .tp_as_async = &frame_async,                                      \
        .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,              \
        .tp_doc = DOC,                                                    \
        .tp_traverse = (traverseproc)PREFIX##_traverse,                   \
        .tp_clear = (inquiry)PREFIX##_clear,                              \
        .tp_iter = PyObject_SelfIter,                                     \
        .tp_iternext = (iternextfunc)frame_iternext,                      \
        .tp_methods = frame_methods,                                      \
        .tp_new = NEW,                                                    \
    }

#define FRAME_ITER_DEALLOC(PREFIX, OBJ)                                   \
    static void                                                           \
    PREFIX##_dealloc(OBJ##Object *self)                                   \
    {                                                                     \
        PyObject_GC_UnTrack(self);                                        \
        Py_TRASHCAN_BEGIN(self, PREFIX##_dealloc)                         \
        PREFIX##_clear(self);                                             \
        PyObject_GC_Del(self);                                            \
        Py_TRASHCAN_END                                                   \
    }

/* the compiled transmits, defined with the devices below */
static PyObject *nic_transmit_fn, *vnic_transmit_fn;
static PyObject *call_transmit(PyObject *, PyObject *, PyObject *,
                               PyObject *);

/* ------------------------------------------------------------------ */
/* Delivery: send's per-frame on_delivered                             */

typedef struct {
    PyObject_HEAD
    PyObject *peer;      /* the receiving TcpSocket */
    PyObject *payload;
    vectorcallfunc vectorcall;
} DeliveryObject;

static PyTypeObject DeliveryType;

/* Store.put(item) for an exact, uncapped Store: the oldest untriggered
 * getter gets the item, else it is queued; the method otherwise. */
static int
store_put(PyObject *store, PyObject *item)
{
    PyObject *r;
    if (Py_TYPE(store) != store_class)
        goto generic;
    PyObject *capacity = PyObject_GetAttr(store, fs_capacity);
    if (capacity == NULL)
        return -1;
    int capped = capacity != Py_None;
    Py_DECREF(capacity);
    if (capped)
        goto generic;
    PyObject *getters = PyObject_GetAttr(store, fs_getters);
    if (getters == NULL)
        return -1;
    for (;;) {
        Py_ssize_t waiting = PyObject_Size(getters);
        if (waiting <= 0) {
            if (waiting < 0) {
                Py_DECREF(getters);
                return -1;
            }
            break;
        }
        PyObject *getter = PyObject_CallMethodNoArgs(getters, fs_popleft);
        if (getter == NULL) {
            Py_DECREF(getters);
            return -1;
        }
        int fired = event_is_triggered(getter);
        if (fired == 0)
            fired = settle(getter, 1, item) < 0 ? -1 : 2;
        Py_DECREF(getter);
        if (fired < 0 || fired == 2) {
            Py_DECREF(getters);
            return fired < 0 ? -1 : 0;
        }
    }
    Py_DECREF(getters);
    PyObject *items = PyObject_GetAttr(store, fs_items);
    if (items == NULL)
        return -1;
    r = PyObject_CallMethodOneArg(items, fs_append, item);
    Py_DECREF(items);
    goto done;
generic:
    r = PyObject_CallMethodOneArg(store, fs_put, item);
done:
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Store.get() for an exact Store: a fresh event, succeeded at once with
 * the oldest item (then the blocked putters drain) or queued as a
 * getter; the method otherwise. */
static PyObject *
store_get(PyObject *store)
{
    if (Py_TYPE(store) != store_class)
        return PyObject_CallMethodNoArgs(store, fs_get);
    PyObject *engine = PyObject_GetAttr(store, fs_engine);
    if (engine == NULL)
        return NULL;
    PyObject *ev = new_event(engine);
    Py_DECREF(engine);
    if (ev == NULL)
        return NULL;
    PyObject *queue = PyObject_GetAttr(store, fs_items);
    if (queue == NULL)
        goto fail;
    Py_ssize_t level = PyObject_Size(queue);
    if (level < 0)
        goto fail_queue;
    PyObject *r;
    if (level > 0) {
        PyObject *item = PyObject_CallMethodNoArgs(queue, fs_popleft);
        if (item == NULL)
            goto fail_queue;
        int fired = settle(ev, 1, item);
        Py_DECREF(item);
        if (fired < 0)
            goto fail_queue;
        Py_SETREF(queue, PyObject_GetAttr(store, fs_putters));
        if (queue == NULL)
            goto fail;
        Py_ssize_t blocked = PyObject_Size(queue);
        if (blocked < 0)
            goto fail_queue;
        if (blocked == 0) {
            Py_DECREF(queue);
            return ev;
        }
        r = PyObject_CallMethodNoArgs(store, fs_drain_putters);
    }
    else {
        Py_SETREF(queue, PyObject_GetAttr(store, fs_getters));
        if (queue == NULL)
            goto fail;
        r = PyObject_CallMethodOneArg(queue, fs_append, ev);
    }
    Py_DECREF(queue);
    if (r == NULL)
        goto fail;
    Py_DECREF(r);
    return ev;
fail_queue:
    Py_DECREF(queue);
fail:
    Py_DECREF(ev);
    return NULL;
}

/* TcpSocket._deliver(payload): put into rx, then the stack's counters. */
static int
deliver(PyObject *peer, PyObject *payload)
{
    if (Py_TYPE(peer) != socket_class) {
        PyObject *r = PyObject_CallMethodOneArg(peer, fs_deliver, payload);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }
    PyObject *rx = PyObject_GetAttr(peer, fs_rx);
    if (rx == NULL)
        return -1;
    int r = store_put(rx, payload);
    Py_DECREF(rx);
    if (r < 0)
        return -1;
    PyObject *stack = PyObject_GetAttr(peer, fs_stack);
    if (stack == NULL)
        return -1;
    PyObject *stats = PyObject_GetAttr(stack, fs_stats);
    Py_DECREF(stack);
    if (stats == NULL)
        return -1;
    r = attr_iadd(stats, fs_packets_received, int_one) < 0
        || attr_iadd(stats, fs_bytes_received, payload) < 0 ? -1 : 0;
    Py_DECREF(stats);
    return r;
}

static PyObject *
delivery_vectorcall(DeliveryObject *self, PyObject *const *args,
                    size_t nargsf, PyObject *kwnames)
{
    if (PyVectorcall_NARGS(nargsf) != 0
        || (kwnames != NULL && PyTuple_GET_SIZE(kwnames) != 0)) {
        PyErr_SetString(PyExc_TypeError,
                        "a frame delivery takes no arguments");
        return NULL;
    }
    if (deliver(self->peer, self->payload) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
new_delivery(PyObject *peer, PyObject *payload)
{
    DeliveryObject *d = PyObject_GC_New(DeliveryObject, &DeliveryType);
    if (d == NULL)
        return NULL;
    d->peer = Py_NewRef(peer);
    d->payload = Py_NewRef(payload);
    d->vectorcall = (vectorcallfunc)delivery_vectorcall;
    PyObject_GC_Track(d);
    return (PyObject *)d;
}

static int
delivery_traverse(DeliveryObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->peer);
    Py_VISIT(self->payload);
    return 0;
}

static int
delivery_clear(DeliveryObject *self)
{
    Py_CLEAR(self->peer);
    Py_CLEAR(self->payload);
    return 0;
}

static void
delivery_dealloc(DeliveryObject *self)
{
    PyObject_GC_UnTrack(self);
    delivery_clear(self);
    PyObject_GC_Del(self);
}

static PyObject *
delivery_qualname(PyObject *self, void *closure)
{
    return PyUnicode_FromString("TcpSocket.send.<locals>.<lambda>");
}

static PyGetSetDef delivery_getset[] = {
    {"__qualname__", delivery_qualname, NULL,
     "The name of the Python body's lambda.", NULL},
    {NULL}
};

static PyTypeObject DeliveryType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.simcore._ccore.Delivery",
    .tp_basicsize = sizeof(DeliveryObject),
    .tp_dealloc = (destructor)delivery_dealloc,
    .tp_vectorcall_offset = offsetof(DeliveryObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC
        | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "One frame's arrival at the peer socket: peer._deliver(payload).",
    .tp_traverse = (traverseproc)delivery_traverse,
    .tp_clear = (inquiry)delivery_clear,
    .tp_getset = delivery_getset,
};

/* ------------------------------------------------------------------ */
/* SendFrames: TcpSocket.send's loop                                   */

#define SEND_TOP 1       /* at the loop's head */
#define SEND_CHARGED 2   /* waiting on the frame's charge */
#define SEND_LAST 3      /* waiting on the last frame's completion */

typedef struct {
    FrameIter base;
    PyObject *thread, *charge, *cycles, *mix, *kind, *transmit, *mtu,
        *peer, *remote, *stats, *remaining, *payload, *last_ev;
    char serialize;
} SendFramesObject;

static PySendResult
send_step(FrameIter *it, PyObject *arg, PyObject *exc, PyObject **result)
{
    SendFramesObject *self = (SendFramesObject *)it;
    *result = NULL;
    if (exc != NULL) {
        /* raised at the suspension point: nothing in the loop catches */
        PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
        return PYGEN_ERROR;
    }
    if (it->state == SEND_LAST) {
        *result = Py_NewRef(Py_None);
        return PYGEN_RETURN;
    }
    for (;;) {
        if (it->state == SEND_CHARGED) {
            PyObject *delivered = new_delivery(self->peer, self->payload);
            if (delivered == NULL)
                return PYGEN_ERROR;
            PyObject *ev = call_transmit(self->transmit, self->payload,
                                         self->remote, delivered);
            Py_DECREF(delivered);
            if (ev == NULL)
                return PYGEN_ERROR;
            if (attr_iadd(self->stats, fs_packets_sent, int_one) < 0
                || attr_iadd(self->stats, fs_bytes_sent, self->payload) < 0) {
                Py_DECREF(ev);
                return PYGEN_ERROR;
            }
            Py_XSETREF(self->last_ev, ev);
            it->state = SEND_TOP;
            if (self->serialize) {
                *result = Py_NewRef(ev);
                return PYGEN_NEXT;
            }
        }
        /* while remaining > 0 */
        int more = PyObject_RichCompareBool(self->remaining, int_zero, Py_GT);
        if (more < 0)
            return PYGEN_ERROR;
        if (!more)
            break;
        /* payload = min(mtu, remaining); remaining -= payload */
        int smaller = num_lt(self->remaining, self->mtu);
        if (smaller < 0)
            return PYGEN_ERROR;
        Py_XSETREF(self->payload,
                   Py_NewRef(smaller ? self->remaining : self->mtu));
        PyObject *left = PyNumber_InPlaceSubtract(self->remaining,
                                                  self->payload);
        if (left == NULL)
            return PYGEN_ERROR;
        Py_SETREF(self->remaining, left);
        PyObject *args[4] = {self->thread, self->cycles, self->mix,
                             self->kind};
        PyObject *ev = PyObject_Vectorcall(self->charge, args, 4, NULL);
        if (ev == NULL)
            return PYGEN_ERROR;
        it->state = SEND_CHARGED;
        *result = ev;
        return PYGEN_NEXT;
    }
    /* if last_ev is not None and not last_ev._triggered: yield last_ev */
    if (self->last_ev != NULL) {
        int fired = event_is_triggered(self->last_ev);
        if (fired < 0)
            return PYGEN_ERROR;
        if (!fired) {
            it->state = SEND_LAST;
            *result = Py_NewRef(self->last_ev);
            return PYGEN_NEXT;
        }
    }
    *result = Py_NewRef(Py_None);
    return PYGEN_RETURN;
}

static PyObject *
send_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"thread", "nbytes", "charge", "cycles", "mix",
                             "kind", "transmit", "mtu", "serialize", "peer",
                             "stats", NULL};
    PyObject *thread, *nbytes, *charge, *cycles, *mix, *kind, *transmit,
        *mtu, *peer, *stats;
    int serialize;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "OOOOOOOOpOO:SendFrames", kwlist, &thread, &nbytes,
            &charge, &cycles, &mix, &kind, &transmit, &mtu, &serialize,
            &peer, &stats))
        return NULL;
    if (frames_import() < 0)
        return NULL;
    PyObject *remote = PyObject_GetAttr(peer, fs_stack);   /* peer.stack */
    if (remote == NULL)
        return NULL;
    SendFramesObject *self = PyObject_GC_New(SendFramesObject, type);
    if (self == NULL) {
        Py_DECREF(remote);
        return NULL;
    }
    self->base.step = send_step;
    self->base.state = SEND_TOP;
    self->base.running = 0;
    self->thread = Py_NewRef(thread);
    self->charge = Py_NewRef(charge);
    self->cycles = Py_NewRef(cycles);
    self->mix = Py_NewRef(mix);
    self->kind = Py_NewRef(kind);
    self->transmit = Py_NewRef(transmit);
    self->mtu = Py_NewRef(mtu);
    self->peer = Py_NewRef(peer);
    self->remote = remote;
    self->stats = Py_NewRef(stats);
    self->remaining = Py_NewRef(nbytes);
    self->payload = NULL;
    self->last_ev = NULL;
    self->serialize = (char)serialize;
    PyObject_GC_Track(self);
    return (PyObject *)self;
}

static int
send_traverse(SendFramesObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->thread);
    Py_VISIT(self->charge);
    Py_VISIT(self->cycles);
    Py_VISIT(self->mix);
    Py_VISIT(self->kind);
    Py_VISIT(self->transmit);
    Py_VISIT(self->mtu);
    Py_VISIT(self->peer);
    Py_VISIT(self->remote);
    Py_VISIT(self->stats);
    Py_VISIT(self->remaining);
    Py_VISIT(self->payload);
    Py_VISIT(self->last_ev);
    return 0;
}

static int
send_clear(SendFramesObject *self)
{
    Py_CLEAR(self->thread);
    Py_CLEAR(self->charge);
    Py_CLEAR(self->cycles);
    Py_CLEAR(self->mix);
    Py_CLEAR(self->kind);
    Py_CLEAR(self->transmit);
    Py_CLEAR(self->mtu);
    Py_CLEAR(self->peer);
    Py_CLEAR(self->remote);
    Py_CLEAR(self->stats);
    Py_CLEAR(self->remaining);
    Py_CLEAR(self->payload);
    Py_CLEAR(self->last_ev);
    return 0;
}

FRAME_ITER_DEALLOC(send, SendFrames)
FRAME_ITER_TYPE(SendFramesType, SendFrames, send, send_new,
                "SendFrames(thread, nbytes, charge, cycles, mix, kind, "
                "transmit, mtu, serialize, peer, stats)\n--\n\n"
                "TcpSocket.send's frame loop: charge, transmit, count.");

/* ------------------------------------------------------------------ */
/* RecvFrames: TcpSocket.recv's loop                                   */

#define RECV_TOP 1       /* at the loop's head */
#define RECV_GOT 2       /* waiting on the store's get */
#define RECV_CHARGED 3   /* waiting on the frame's charge */

typedef struct {
    FrameIter base;
    PyObject *thread, *nbytes, *rx, *charge, *cycles, *mix, *kind,
        *received, *payload;
} RecvFramesObject;

static PySendResult
recv_step(FrameIter *it, PyObject *arg, PyObject *exc, PyObject **result)
{
    RecvFramesObject *self = (RecvFramesObject *)it;
    *result = NULL;
    if (exc != NULL) {
        PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
        return PYGEN_ERROR;
    }
    if (it->state == RECV_GOT) {
        /* payload = yield get(); yield charge(...) */
        Py_XSETREF(self->payload, Py_NewRef(arg));
        PyObject *args[4] = {self->thread, self->cycles, self->mix,
                             self->kind};
        PyObject *ev = PyObject_Vectorcall(self->charge, args, 4, NULL);
        if (ev == NULL)
            return PYGEN_ERROR;
        it->state = RECV_CHARGED;
        *result = ev;
        return PYGEN_NEXT;
    }
    if (it->state == RECV_CHARGED) {
        PyObject *sum = PyNumber_InPlaceAdd(self->received, self->payload);
        if (sum == NULL)
            return PYGEN_ERROR;
        Py_SETREF(self->received, sum);
    }
    /* while received < nbytes */
    int more = num_lt(self->received, self->nbytes);
    if (more < 0)
        return PYGEN_ERROR;
    if (!more) {
        *result = Py_NewRef(self->received);
        return PYGEN_RETURN;
    }
    PyObject *ev = store_get(self->rx);   /* get() */
    if (ev == NULL)
        return PYGEN_ERROR;
    it->state = RECV_GOT;
    *result = ev;
    return PYGEN_NEXT;
}

static PyObject *
recv_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"thread", "nbytes", "rx", "charge", "cycles",
                             "mix", "kind", NULL};
    PyObject *thread, *nbytes, *rx, *charge, *cycles, *mix, *kind;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "OOOOOOO:RecvFrames", kwlist, &thread, &nbytes, &rx,
            &charge, &cycles, &mix, &kind))
        return NULL;
    if (frames_import() < 0)
        return NULL;
    RecvFramesObject *self = PyObject_GC_New(RecvFramesObject, type);
    if (self == NULL)
        return NULL;
    self->base.step = recv_step;
    self->base.state = RECV_TOP;
    self->base.running = 0;
    self->thread = Py_NewRef(thread);
    self->nbytes = Py_NewRef(nbytes);
    self->rx = Py_NewRef(rx);
    self->charge = Py_NewRef(charge);
    self->cycles = Py_NewRef(cycles);
    self->mix = Py_NewRef(mix);
    self->kind = Py_NewRef(kind);
    self->received = Py_NewRef(int_zero);
    self->payload = NULL;
    PyObject_GC_Track(self);
    return (PyObject *)self;
}

static int
recv_traverse(RecvFramesObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->thread);
    Py_VISIT(self->nbytes);
    Py_VISIT(self->rx);
    Py_VISIT(self->charge);
    Py_VISIT(self->cycles);
    Py_VISIT(self->mix);
    Py_VISIT(self->kind);
    Py_VISIT(self->received);
    Py_VISIT(self->payload);
    return 0;
}

static int
recv_clear(RecvFramesObject *self)
{
    Py_CLEAR(self->thread);
    Py_CLEAR(self->nbytes);
    Py_CLEAR(self->rx);
    Py_CLEAR(self->charge);
    Py_CLEAR(self->cycles);
    Py_CLEAR(self->mix);
    Py_CLEAR(self->kind);
    Py_CLEAR(self->received);
    Py_CLEAR(self->payload);
    return 0;
}

FRAME_ITER_DEALLOC(recv, RecvFrames)
FRAME_ITER_TYPE(RecvFramesType, RecvFrames, recv, recv_new,
                "RecvFrames(thread, nbytes, rx, charge, cycles, mix, kind)"
                "\n--\n\n"
                "TcpSocket.recv's frame loop: get, charge, count; returns "
                "the bytes received.");

/* ------------------------------------------------------------------ */
/* VnicService: VirtualNic._service, one frame through the VMM         */

#define SVC_START 1      /* created, not yet resumed */
#define SVC_CHARGED 2    /* waiting on the emulation charge */
#define SVC_SENT 3       /* waiting on the injection or the NIC */

typedef struct {
    FrameIter base;
    PyObject *vnic, *payload, *on_delivered, *done, *vm;
    char internal;
} VnicServiceObject;

/* The except clause: an Exception fails the guest-side waiter and ends
 * the service; anything else propagates. */
static PySendResult
service_caught(VnicServiceObject *self, PyObject *exc, PyObject **result)
{
    if (exc == NULL) {
        if (!PyErr_ExceptionMatches(PyExc_Exception))
            return PYGEN_ERROR;
        exc = fetch_exception();
    }
    else {
        if (!PyErr_GivenExceptionMatches(exc, PyExc_Exception)) {
            PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
            return PYGEN_ERROR;
        }
        Py_INCREF(exc);
    }
    int r = settle(self->done, 0, exc);
    Py_DECREF(exc);
    if (r < 0)
        return PYGEN_ERROR;
    *result = Py_NewRef(Py_None);
    return PYGEN_RETURN;
}

static PySendResult
service_step(FrameIter *it, PyObject *arg, PyObject *exc, PyObject **result)
{
    VnicServiceObject *self = (VnicServiceObject *)it;
    PyObject *ev;
    *result = NULL;
    if (exc != NULL) {
        if (it->state == SVC_START) {   /* before the try */
            PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
            return PYGEN_ERROR;
        }
        return service_caught(self, exc, result);
    }
    if (it->state == SVC_START) {
        /* vm = self.vm; stats = self.stats;
         * cycles = self.mode.per_packet_cycles */
        self->vm = PyObject_GetAttr(self->vnic, fs_vm);
        if (self->vm == NULL)
            return PYGEN_ERROR;
        PyObject *stats = PyObject_GetAttr(self->vnic, fs_stats);
        if (stats == NULL)
            return PYGEN_ERROR;
        PyObject *mode = PyObject_GetAttr(self->vnic, fs_mode);
        if (mode == NULL) {
            Py_DECREF(stats);
            return PYGEN_ERROR;
        }
        PyObject *cycles = PyObject_GetAttr(mode, fs_per_packet_cycles);
        Py_DECREF(mode);
        if (cycles == NULL) {
            Py_DECREF(stats);
            return PYGEN_ERROR;
        }
        /* try: */
        ev = NULL;
        if (attr_iadd(stats, fs_frames, int_one) == 0
            && attr_iadd(stats, fs_payload_bytes, self->payload) == 0
            && attr_iadd(stats, fs_emulation_cycles, cycles) == 0) {
            PyObject *vcpu = PyObject_GetAttr(self->vm, fs_vcpu);
            if (vcpu != NULL) {
                PyObject *args[3] = {vcpu, cycles, mix_vmm_service};
                ev = PyObject_VectorcallMethod(
                    fs_charge_host_native, args,
                    3 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
                Py_DECREF(vcpu);
            }
        }
        Py_DECREF(stats);
        Py_DECREF(cycles);
        if (ev == NULL)
            return service_caught(self, NULL, result);
        it->state = SVC_CHARGED;
        *result = ev;
        return PYGEN_NEXT;
    }
    if (it->state == SVC_CHARGED) {
        if (self->internal) {
            /* the VMM injects the frame into the host/guest stack */
            PyObject *engine = PyObject_GetAttr(self->vm, fs_engine);
            if (engine == NULL)
                return service_caught(self, NULL, result);
            ev = PyObject_CallMethodOneArg(engine, fs_timeout,
                                           float_vmm_inject);
            Py_DECREF(engine);
        }
        else {
            ev = NULL;
            PyObject *machine = PyObject_GetAttr(self->vm, fs_host_machine);
            if (machine != NULL) {
                PyObject *nic = PyObject_GetAttr(machine, fs_nic);
                Py_DECREF(machine);
                if (nic != NULL) {
                    PyObject *transmit = PyObject_GetAttr(nic, fs_transmit);
                    Py_DECREF(nic);
                    if (transmit != NULL) {
                        ev = call_transmit(transmit, self->payload, NULL,
                                           self->on_delivered);
                        Py_DECREF(transmit);
                    }
                }
            }
        }
        if (ev == NULL)
            return service_caught(self, NULL, result);
        it->state = SVC_SENT;
        *result = ev;
        return PYGEN_NEXT;
    }
    /* SVC_SENT */
    if (self->internal && self->on_delivered != Py_None) {
        PyObject *r = PyObject_CallNoArgs(self->on_delivered);
        if (r == NULL)
            return service_caught(self, NULL, result);
        Py_DECREF(r);
    }
    /* done.succeed(None), outside the try */
    if (settle(self->done, 1, Py_None) < 0)
        return PYGEN_ERROR;
    *result = Py_NewRef(Py_None);
    return PYGEN_RETURN;
}

static int
service_traverse(VnicServiceObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->vnic);
    Py_VISIT(self->payload);
    Py_VISIT(self->on_delivered);
    Py_VISIT(self->done);
    Py_VISIT(self->vm);
    return 0;
}

static int
service_clear(VnicServiceObject *self)
{
    Py_CLEAR(self->vnic);
    Py_CLEAR(self->payload);
    Py_CLEAR(self->on_delivered);
    Py_CLEAR(self->done);
    Py_CLEAR(self->vm);
    return 0;
}

FRAME_ITER_DEALLOC(service, VnicService)
FRAME_ITER_TYPE(VnicServiceType, VnicService, service, NULL,
                "One frame through the VMM: the emulation charge, then the "
                "injection or the host NIC; failures go to ``done``.");

static PyObject *
new_service(PyObject *vnic, PyObject *payload, int internal,
            PyObject *on_delivered, PyObject *done)
{
    VnicServiceObject *self =
        PyObject_GC_New(VnicServiceObject, &VnicServiceType);
    if (self == NULL)
        return NULL;
    self->base.step = service_step;
    self->base.state = SVC_START;
    self->base.running = 0;
    self->vnic = Py_NewRef(vnic);
    self->payload = Py_NewRef(payload);
    self->on_delivered = Py_NewRef(on_delivered);
    self->done = Py_NewRef(done);
    self->vm = NULL;
    self->internal = (char)internal;
    PyObject_GC_Track(self);
    return (PyObject *)self;
}

/* ------------------------------------------------------------------ */
/* the device transmits, installed as methods                          */

/* (self, payload_bytes, remote=None, on_delivered=None) */
static int
parse_transmit(const char *what, PyObject *const *args, Py_ssize_t nargs,
               PyObject *kwnames, PyObject **slots)
{
    static const char *names[] = {"self", "payload_bytes", "remote",
                                  "on_delivered"};
    if (nargs > 4) {
        PyErr_Format(PyExc_TypeError,
                     "%s() takes at most 4 arguments (%zd given)", what,
                     nargs);
        return -1;
    }
    slots[2] = slots[3] = Py_None;
    slots[0] = slots[1] = NULL;
    for (Py_ssize_t i = 0; i < nargs; i++)
        slots[i] = args[i];
    Py_ssize_t nkw = kwnames == NULL ? 0 : PyTuple_GET_SIZE(kwnames);
    for (Py_ssize_t k = 0; k < nkw; k++) {
        PyObject *key = PyTuple_GET_ITEM(kwnames, k);
        int found = 0;
        for (int i = 1; i < 4; i++) {
            if (PyUnicode_CompareWithASCIIString(key, names[i]) == 0) {
                if (i < nargs) {
                    PyErr_Format(PyExc_TypeError,
                                 "%s() got multiple values for argument "
                                 "'%s'", what, names[i]);
                    return -1;
                }
                slots[i] = args[nargs + k];
                found = 1;
                break;
            }
        }
        if (!found) {
            PyErr_Format(PyExc_TypeError,
                         "%s() got an unexpected keyword argument '%S'",
                         what, key);
            return -1;
        }
    }
    if (slots[0] == NULL || slots[1] == NULL) {
        PyErr_Format(PyExc_TypeError,
                     "%s() missing required argument 'payload_bytes'", what);
        return -1;
    }
    return 0;
}

/* VirtualNic.transmit: emulate and forward one frame; the returned
 * event succeeds at tx-complete. */
static PyObject *
vnic_transmit_body(PyObject *vnic, PyObject *payload, PyObject *remote,
                   PyObject *on_delivered)
{
    int bad = PyObject_RichCompareBool(payload, int_zero, Py_LE);
    if (bad != 0)
        return bad < 0 ? NULL : network_error("vnic frame of %S bytes",
                                              payload, NULL);
    PyObject *done = NULL, *service = NULL, *name = NULL, *proc = NULL;
    PyObject *vm = PyObject_GetAttr(vnic, fs_vm);
    if (vm == NULL)
        return NULL;
    PyObject *engine = PyObject_GetAttr(vm, fs_engine);
    if (engine == NULL)
        goto out;
    done = new_event(engine);
    if (done == NULL)
        goto out;
    /* internal = remote is vm.host_kernel.net
     *            or (remote is not None and remote is vm.guest_net) */
    PyObject *kernel = PyObject_GetAttr(vm, fs_host_kernel);
    if (kernel == NULL)
        goto fail;
    PyObject *net = PyObject_GetAttr(kernel, fs_net);
    Py_DECREF(kernel);
    if (net == NULL)
        goto fail;
    int internal = remote == net;
    Py_DECREF(net);
    if (!internal && remote != Py_None) {
        PyObject *guest = PyObject_GetAttr(vm, fs_guest_net);
        if (guest == NULL)
            goto fail;
        internal = remote == guest;
        Py_DECREF(guest);
    }
    service = new_service(vnic, payload, internal, on_delivered, done);
    if (service == NULL)
        goto fail;
    name = PyObject_GetAttr(vnic, fs_process_name);
    if (name == NULL)
        goto fail;
    proc = start_process(engine, service, name);
    if (proc == NULL)
        goto fail;
    goto out;
fail:
    Py_CLEAR(done);
out:
    Py_XDECREF(proc);
    Py_XDECREF(name);
    Py_XDECREF(service);
    Py_XDECREF(engine);
    Py_DECREF(vm);
    return done;
}

/* The NicSpec fields transmit reads, kept for the last spec seen:
 * NicSpec is a frozen dataclass, so a spec's fields never change. */
static PyObject *spec_seen, *spec_mtu, *spec_overhead, *spec_rate,
    *spec_latency;

static int
read_spec(PyObject *spec)
{
    if (spec == spec_seen)
        return 0;
    PyObject *mtu = PyObject_GetAttr(spec, fs_mtu_payload_bytes);
    PyObject *overhead = PyObject_GetAttr(spec, fs_frame_overhead_bytes);
    PyObject *rate = PyObject_GetAttr(spec, fs_line_rate_bps);
    PyObject *latency = PyObject_GetAttr(spec, fs_link_latency_s);
    if (mtu == NULL || overhead == NULL || rate == NULL || latency == NULL) {
        Py_XDECREF(mtu);
        Py_XDECREF(overhead);
        Py_XDECREF(rate);
        Py_XDECREF(latency);
        return -1;
    }
    Py_XSETREF(spec_mtu, mtu);
    Py_XSETREF(spec_overhead, overhead);
    Py_XSETREF(spec_rate, rate);
    Py_XSETREF(spec_latency, latency);
    Py_XSETREF(spec_seen, Py_NewRef(spec));
    return 0;
}

/* Nic.transmit: queue one frame on the wire; the returned event
 * succeeds (with the wire time) when the frame has left the wire, and
 * ``on_delivered`` fires one link latency later. */
static PyObject *
nic_transmit_body(PyObject *nic, PyObject *payload, PyObject *on_delivered)
{
    PyObject *spec = NULL, *wire = NULL, *engine = NULL, *start = NULL,
        *finish = NULL, *stats = NULL, *peer = NULL, *done = NULL,
        *succeed = NULL, *result = NULL, *handle = NULL, *tmp = NULL,
        *tmp2 = NULL;
    peer = PyObject_GetAttr(nic, fs_peer);
    if (peer == NULL)
        return NULL;
    if (peer == Py_None) {
        PyObject *name = PyObject_GetAttr(nic, fs_name);
        if (name != NULL) {
            network_error("NIC %R has no link", name, NULL);
            Py_DECREF(name);
        }
        goto out;
    }
    /* wire = self.frame_time(payload_bytes) */
    spec = PyObject_GetAttr(nic, fs_spec);
    if (spec == NULL || read_spec(spec) < 0)
        goto out;
    int bad = PyObject_RichCompareBool(payload, int_zero, Py_LE);
    if (bad != 0) {
        if (bad > 0)
            network_error("frame payload must be positive, got %S", payload,
                          NULL);
        goto out;
    }
    bad = PyObject_RichCompareBool(payload, spec_mtu, Py_GT);
    if (bad != 0) {
        if (bad > 0)
            network_error("payload %S exceeds MTU %S", payload, spec_mtu);
        goto out;
    }
    tmp2 = PyNumber_Add(payload, spec_overhead);
    if (tmp2 == NULL)
        goto out;
    wire = PyNumber_TrueDivide(tmp2, spec_rate);
    if (wire == NULL)
        goto out;
    Py_CLEAR(tmp2);
    /* start = max(self.engine.now, self._tx_busy_until) */
    engine = PyObject_GetAttr(nic, fs_engine);
    if (engine == NULL)
        goto out;
    if (check_engine(engine) < 0)
        goto out;
    start = Py_NewRef(((EngineObject *)engine)->now);
    tmp = PyObject_GetAttr(nic, fs_tx_busy_until);
    if (tmp == NULL)
        goto out;
    int later = PyObject_RichCompareBool(tmp, start, Py_GT);
    if (later < 0)
        goto out;
    if (later)
        Py_SETREF(start, Py_NewRef(tmp));
    Py_CLEAR(tmp);
    finish = PyNumber_Add(start, wire);
    if (finish == NULL
        || PyObject_SetAttr(nic, fs_tx_busy_until, finish) < 0)
        goto out;
    stats = PyObject_GetAttr(nic, fs_stats);
    if (stats == NULL
        || attr_iadd(stats, fs_frames_sent, int_one) < 0
        || attr_iadd(stats, fs_payload_bytes_sent, payload) < 0
        || attr_iadd(stats, fs_busy_seconds, wire) < 0)
        goto out;
    Py_CLEAR(stats);
    stats = PyObject_GetAttr(peer, fs_stats);   /* peer = self.peer */
    if (stats == NULL
        || attr_iadd(stats, fs_frames_received, int_one) < 0
        || attr_iadd(stats, fs_payload_bytes_received, payload) < 0)
        goto out;
    /* if METRICS.enabled: ... */
    int on = truth_of(metrics, fs_enabled);
    if (on < 0)
        goto out;
    if (on) {
        PyObject *inc1[2] = {metrics, fs_hw_frames};
        PyObject *inc2[3] = {metrics, fs_hw_payload_bytes, payload};
        PyObject *obs[3] = {metrics, fs_hw_frame_wire_s, wire};
        size_t offset = PY_VECTORCALL_ARGUMENTS_OFFSET;
        PyObject *r = PyObject_VectorcallMethod(fs_inc, inc1, 2 | offset,
                                                NULL);
        if (r == NULL)
            goto out;
        Py_DECREF(r);
        r = PyObject_VectorcallMethod(fs_inc, inc2, 3 | offset, NULL);
        if (r == NULL)
            goto out;
        Py_DECREF(r);
        r = PyObject_VectorcallMethod(fs_observe, obs, 3 | offset, NULL);
        if (r == NULL)
            goto out;
        Py_DECREF(r);
    }
    /* done = self.engine.event(); schedule_at(finish, done.succeed, wire) */
    EngineObject *core = (EngineObject *)engine;
    done = new_event(engine);
    if (done == NULL)
        goto out;
    succeed = BOUND(done, event_methods[0]);   /* done.succeed */
    if (succeed == NULL || engine_check_at(core, finish) < 0)
        goto out;
    tmp = PyTuple_Pack(1, wire);
    if (tmp == NULL)
        goto out;
    handle = engine_push_at(core, finish, succeed, tmp, 0);
    if (handle == NULL)
        goto out;
    Py_CLEAR(handle);
    if (on_delivered != Py_None) {
        tmp2 = PyNumber_Add(finish, spec_latency);
        if (tmp2 == NULL || engine_check_at(core, tmp2) < 0)
            goto out;
        handle = engine_push_at(core, tmp2, on_delivered, empty_args, 0);
        if (handle == NULL)
            goto out;
        Py_CLEAR(handle);
    }
    result = Py_NewRef(done);
out:
    Py_XDECREF(spec);
    Py_XDECREF(wire);
    Py_XDECREF(engine);
    Py_XDECREF(start);
    Py_XDECREF(finish);
    Py_XDECREF(stats);
    Py_XDECREF(peer);
    Py_XDECREF(done);
    Py_XDECREF(succeed);
    Py_XDECREF(handle);
    Py_XDECREF(tmp);
    Py_XDECREF(tmp2);
    return result;
}

static PyObject *
vnic_transmit(PyObject *module, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    PyObject *a[4];
    if (parse_transmit("transmit", args, nargs, kwnames, a) < 0
        || frames_import() < 0)
        return NULL;
    return vnic_transmit_body(a[0], a[1], a[2], a[3]);
}

static PyObject *
nic_transmit(PyObject *module, PyObject *const *args, Py_ssize_t nargs,
             PyObject *kwnames)
{
    PyObject *a[4];
    if (parse_transmit("transmit", args, nargs, kwnames, a) < 0
        || frames_import() < 0)
        return NULL;
    return nic_transmit_body(a[0], a[1], a[3]);
}

/* transmit(payload, [remote=remote,] on_delivered=delivered) of a bound
 * device method: straight into the compiled bodies when it is one of
 * them (the binding their wrapper would make), any other callable by a
 * call.  ``remote`` NULL leaves the keyword out. */
static PyObject *
call_transmit(PyObject *transmit, PyObject *payload, PyObject *remote,
              PyObject *delivered)
{
    if (PyMethod_Check(transmit)) {
        PyObject *fn = PyMethod_GET_FUNCTION(transmit);
        if (fn == nic_transmit_fn)
            return nic_transmit_body(PyMethod_GET_SELF(transmit), payload,
                                     delivered);
        if (fn == vnic_transmit_fn)
            return vnic_transmit_body(PyMethod_GET_SELF(transmit), payload,
                                      remote ? remote : Py_None, delivered);
    }
    if (remote == NULL) {
        PyObject *args[2] = {payload, delivered};
        return PyObject_Vectorcall(transmit, args, 1, kw_delivered);
    }
    PyObject *args[3] = {payload, remote, delivered};
    return PyObject_Vectorcall(transmit, args, 1, kw_remote_delivered);
}

static PyMethodDef transmit_defs[] = {
    {"nic_transmit", (PyCFunction)(void (*)(void))nic_transmit,
     METH_FASTCALL | METH_KEYWORDS,
     "transmit(self, payload_bytes, remote=None, on_delivered=None)\n\n"
     "Nic.transmit: queue one frame; the event succeeds at wire exit."},
    {"vnic_transmit", (PyCFunction)(void (*)(void))vnic_transmit,
     METH_FASTCALL | METH_KEYWORDS,
     "transmit(self, payload_bytes, remote=None, on_delivered=None)\n\n"
     "VirtualNic.transmit: one frame through the VMM in its own process."},
    {NULL}
};

/* Called from the module init: the types, the transmit methods (as
 * instance methods, so a class attribute binds them) and the names. */
static int
frames_module_init(PyObject *module)
{
    PyObject *errors = PyImport_ImportModule("repro.errors");
    if (errors == NULL)
        return -1;
    NetworkError = PyObject_GetAttrString(errors, "NetworkError");
    Py_DECREF(errors);
    if (NetworkError == NULL)
        return -1;
    for (int i = 0; frame_names[i].slot != NULL; i++) {
        *frame_names[i].slot = PyUnicode_InternFromString(
            frame_names[i].text);
        if (*frame_names[i].slot == NULL)
            return -1;
    }
    int_one = PyLong_FromLong(1);
    float_zero = PyFloat_FromDouble(0.0);
    float_vmm_inject = PyFloat_FromDouble(20e-6);
    kw_remote_delivered = Py_BuildValue("(ss)", "remote", "on_delivered");
    kw_delivered = Py_BuildValue("(s)", "on_delivered");
    if (!int_one || !float_zero || !float_vmm_inject || !kw_remote_delivered
        || !kw_delivered)
        return -1;
    if (PyType_Ready(&DeliveryType) < 0 || PyType_Ready(&SendFramesType) < 0
        || PyType_Ready(&RecvFramesType) < 0
        || PyType_Ready(&VnicServiceType) < 0)
        return -1;
    if (PyModule_AddObjectRef(module, "Delivery",
                              (PyObject *)&DeliveryType) < 0
        || PyModule_AddObjectRef(module, "SendFrames",
                                 (PyObject *)&SendFramesType) < 0
        || PyModule_AddObjectRef(module, "RecvFrames",
                                 (PyObject *)&RecvFramesType) < 0
        || PyModule_AddObjectRef(module, "VnicService",
                                 (PyObject *)&VnicServiceType) < 0)
        return -1;
    PyObject **fns[] = {&nic_transmit_fn, &vnic_transmit_fn};
    for (int i = 0; i < 2; i++) {
        PyMethodDef *def = &transmit_defs[i];
        PyObject *fn = PyCFunction_NewEx(def, NULL, NULL);
        if (fn == NULL)
            return -1;
        *fns[i] = fn;   /* kept for call_transmit */
        PyObject *method = PyInstanceMethod_New(fn);
        if (method == NULL
            || PyModule_AddObject(module, def->ml_name, method) < 0) {
            Py_XDECREF(method);
            return -1;
        }
    }
    return 0;
}
