"""AST lint rules enforcing the determinism contract's coding discipline.

Each rule names a *bug class* that has historically broken byte-identical
replay in desktop-grid style simulators (and, per ISSUE 5, three of which
were found live in this repo):

``wall-clock``
    Host-clock reads.  Non-monotonic reads (``time.time``,
    ``datetime.now``, ...) are banned outside ``obs/`` — wall time
    belongs in run manifests, never in results or elapsed-time maths
    (an NTP step makes ``time.time()`` deltas negative).  Monotonic
    reads (``perf_counter``, ``monotonic``) are fine in harness code
    (``api.py`` timing, ``cli.py``, ``core/``) but banned in *sim*
    packages, where the only legitimate clock is ``engine.now``.

``global-random``
    Global-RNG use: the ``random`` module, ``numpy.random`` module-level
    convenience functions, or an argument-less ``default_rng()``.  All
    randomness must flow from an explicit seed through
    ``numpy.random.Generator(PCG64(seed))`` / ``RngStreams`` so
    repetitions replay from ``derive_rep_seed``.

``env-read``
    ``os.environ`` / ``os.getenv`` reads outside ``RunConfig.from_env``
    — the single sanctioned environment interpreter.  Scattered env
    reads are exactly the implicit-policy smear ``repro.api`` exists to
    remove (writes are not flagged).

``unsorted-iter``
    ``for`` iteration over a ``set``/``frozenset`` expression in sim
    code.  Set order depends on insertion history and hash seeds;
    state-mutating loops over one diverge across runs.  Wrap in
    ``sorted(...)``.  (``dict`` iteration is insertion-ordered on every
    supported interpreter and exempt by design.)

``float-sum``
    ``sum()`` over a set expression or a comprehension drawn from one.
    Float addition is not associative, so an unordered reduction can
    differ in the last ulp between runs — enough to break byte-identical
    figures.

Every rule honours an inline ``# repro: allow-<rule>`` escape hatch on
the flagged line or the line above (applied by
:mod:`repro.audit.linter`), and the linter supports a JSON baseline
file for grandfathered sites.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Sim packages: the only clock is simulated time, the only RNG a seeded
#: stream.  Paths are relative to the ``repro`` package root.
SIM_DIRS = ("simcore", "osmodel", "hardware", "virt", "workloads",
            "fleet", "grid")

#: Non-monotonic host-clock reads (jump with NTP/DST; never subtract).
WALL_FNS = frozenset({
    "time.time", "time.time_ns", "time.ctime", "time.gmtime",
    "time.localtime", "time.strftime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Monotonic host-clock reads (fine for harness timing, banned in sim).
MONO_FNS = frozenset({
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "time.process_time_ns",
})

#: Set-returning methods whose result order is undefined.
_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})


@dataclass(frozen=True)
class Rule:
    id: str
    summary: str


RULES: Dict[str, Rule] = {rule.id: rule for rule in (
    Rule("wall-clock",
         "host-clock read outside the allowlist (obs/ for wall time; "
         "harness layers for monotonic timers)"),
    Rule("global-random",
         "global / unseeded RNG use; seed an explicit "
         "numpy.random.Generator instead"),
    Rule("env-read",
         "os.environ read outside RunConfig.from_env"),
    Rule("unsorted-iter",
         "iteration over an unsorted set in sim code; wrap in sorted()"),
    Rule("float-sum",
         "float sum() over an unordered container"),
)}


@dataclass(frozen=True)
class Violation:
    """One lint finding, locatable and baseline-matchable."""
    path: str           # as given to the linter
    rel: Optional[str]  # path relative to the repro package root, if any
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule}: {self.message}")


def module_rel_path(path: str) -> Optional[str]:
    """Path relative to the ``repro`` package root, or ``None``.

    Files outside a ``repro`` package (fixtures, scratch files) get the
    *strictest* treatment — every sim-only rule applies — so the lint's
    own self-tests exercise all rules from a temp directory.
    """
    parts = path.replace("\\", "/").split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1:])
    return None


def _is_sim_path(rel: Optional[str]) -> bool:
    if rel is None:
        return True
    return rel.split("/", 1)[0] in SIM_DIRS


def _is_obs_path(rel: Optional[str]) -> bool:
    return rel is not None and rel.startswith("obs/")


class _RuleVisitor(ast.NodeVisitor):
    """Single-pass visitor resolving imports to dotted names and
    applying every rule."""

    def __init__(self, rel: Optional[str]):
        self.rel = rel
        self.sim = _is_sim_path(rel)
        self.obs = _is_obs_path(rel)
        self.violations: List[Tuple[int, int, str, str]] = []
        self._modules: Dict[str, str] = {}   # local name -> module
        self._names: Dict[str, str] = {}     # local name -> dotted name
        self._func_stack: List[str] = []

    # -- import tracking -------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self._modules[alias.asname] = alias.name
            else:
                root = alias.name.split(".", 1)[0]
                self._modules[root] = root
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                self._names[local] = f"{node.module}.{alias.name}"
        self.generic_visit(node)

    def _resolve(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self._names.get(node.id) or self._modules.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._resolve(node.value)
            return f"{base}.{node.attr}" if base else None
        return None

    # -- scope tracking (for the from_env exemption) ---------------------

    def _visit_func(self, node) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def _in_from_env(self) -> bool:
        return "from_env" in self._func_stack

    # -- findings --------------------------------------------------------

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            (node.lineno, node.col_offset, rule, message))

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._resolve(node.func)
        if dotted is not None:
            self._check_clock(node, dotted)
            self._check_random(node, dotted)
            if dotted in ("os.getenv", "os.environ.get") \
                    and not self._in_from_env():
                self._flag(node, "env-read",
                           f"{dotted}() outside RunConfig.from_env; "
                           "policy belongs in repro.api.RunConfig")
        if isinstance(node.func, ast.Name) and node.func.id == "sum" \
                and node.args and _is_unordered_source(node.args[0]):
            self._flag(node, "float-sum",
                       "sum() over an unordered container; float "
                       "addition order changes the result — sort first")
        self.generic_visit(node)

    def _check_clock(self, node: ast.Call, dotted: str) -> None:
        if dotted in WALL_FNS:
            if not self.obs:
                self._flag(node, "wall-clock",
                           f"non-monotonic {dotted}() outside obs/; "
                           "use time.perf_counter() for elapsed time, "
                           "obs manifests for wall time")
        elif dotted in MONO_FNS and self.sim:
            self._flag(node, "wall-clock",
                       f"host clock {dotted}() in sim code; simulated "
                       "time comes from engine.now")

    def _check_random(self, node: ast.Call, dotted: str) -> None:
        if dotted == "random" or dotted.startswith("random."):
            self._flag(node, "global-random",
                       f"global {dotted}() call; use a seeded "
                       "numpy.random.Generator / RngStreams stream")
        elif dotted == "numpy.random.default_rng":
            if not node.args:
                self._flag(node, "global-random",
                           "default_rng() without a seed is "
                           "OS-entropy-seeded; pass an explicit seed")
        elif dotted.startswith("numpy.random."):
            tail = dotted.rsplit(".", 1)[1]
            if tail.islower():
                self._flag(node, "global-random",
                           f"{dotted}() uses numpy's global RNG; use a "
                           "seeded numpy.random.Generator")

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, ast.Load) \
                and self._resolve(node.value) == "os.environ" \
                and not self._in_from_env():
            self._flag(node, "env-read",
                       "os.environ[...] read outside RunConfig.from_env; "
                       "policy belongs in repro.api.RunConfig")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self.sim and _is_unordered_source(node.iter):
            self._flag(node, "unsorted-iter",
                       "iteration over an unsorted set in sim code; "
                       "wrap in sorted(...) to fix the visit order")
        self.generic_visit(node)


def _is_unordered_source(node: ast.AST) -> bool:
    """Does this expression produce an unordered container?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return True
    if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
        return any(_is_unordered_source(gen.iter)
                   for gen in node.generators)
    return False


def check_source(source: str, path: str) -> List[Violation]:
    """Run every rule over one file's source; raises ``SyntaxError`` on
    unparseable input (the linter reports it as a failure)."""
    tree = ast.parse(source, filename=path)
    rel = module_rel_path(path)
    visitor = _RuleVisitor(rel)
    visitor.visit(tree)
    return [Violation(path=path, rel=rel, line=line, col=col,
                      rule=rule, message=message)
            for line, col, rule, message in visitor.violations]
