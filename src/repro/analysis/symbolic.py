"""Symbolic stencil inference: derive footprints from tile-kernel source.

An AST-level abstract interpreter over registered tile kernels.  The
declared footprints of :mod:`repro.analysis.footprint` are hand-written
may-read/may-write models; this module *computes* the same objects from
the kernel's own code, which gives the analysis stack three new powers:

* **verification** — every hand declaration is cross-checked against the
  inferred footprint (:func:`verify_declaration`): a declaration that
  misses an inferred cell is *under-declared* (the static race checker
  would be unsound) and fails; declared-but-never-accessed cells are an
  *over-declaration* (sound, merely conservative) and only warn;
* **certification** — kernels registered without a declaration get an
  inferred footprint (``source="inferred"``) through
  :func:`~repro.analysis.footprint.footprint_for`, so the static race
  checker and the halo-depth analysis cover them soundly instead of via
  single-execution shadow tracing;
* **verdicts** — :func:`certify_kernel` renders a per-kernel static
  verdict (race-free / racy-by-design / refused-with-reason) for the
  ``repro-check symbolic`` gate.

Abstract domain
---------------
The interpreter evaluates one *concrete* :class:`TileTask` (tile bounds,
plane indices, and the fused step count are known integers), so most
scalar arithmetic stays exact.  Arrays are abstracted to three values:

* :class:`PlaneView` — a rectangular window of one shared plane, in framed
  coordinates.  Composing two basic slices composes windows, mirroring
  :class:`~repro.analysis.shadow.ShadowPlane` exactly; using a view as a
  ufunc/operator operand records a read, assigning into one records a
  write, in-place updates record both.
* :class:`LocalArray` — kernel-local scratch (``np.zeros``, slice
  temporaries): accesses record nothing, because no other task can see it.
* :class:`Interval` — an integer known only to a range ``[lo, hi]``
  (summarised loop variables).  A window sliced with interval bounds is
  recorded as the rectangular hull — a sound may-access superset.

Everything else the interpreter cannot prove becomes ``UNKNOWN``; using an
unknown value where a window bound is needed raises
:class:`SymbolicRefusal` with a human-readable reason — the *soundness
boundary*.  Refusing is always an option, silently guessing never is.

Control flow: ``if`` on an unknown condition executes both arms and joins
their environments (accesses accumulate globally — may-sets); concrete
``for range`` loops unroll exactly (the fused trapezoid's
``for j in range(2, k)``); ``while`` loops run to an access-set fixpoint
with widening, bounded by :data:`MAX_LOOP_PASSES` (sound for bodies whose
windows are loop-invariant, e.g. ``async_tile_relax``'s relaxation loop).
Helper calls into ``repro.*`` modules are inlined and interpreted;
``numba`` dispatchers are unwrapped to their ``py_func``; per-thread
scratch allocators are modelled by entries in :data:`SUMMARIES`.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.analysis.footprint import (
    Footprint,
    declared_footprint,
    rect_cells,
)
from repro.easypap.executor import (
    TileTask,
    get_tile_kernel,
    registered_tile_kernels,
    registry_version,
    tile_kernel_tags,
)
from repro.easypap.tiling import Tile, TileGrid

__all__ = [
    "SymbolicRefusal",
    "UNINTERPRETABLE_NODES",
    "infer_footprint",
    "inference_refusal",
    "probe_tasks",
    "DeclarationCheck",
    "verify_declaration",
    "verify_declarations",
    "KernelVerdict",
    "certify_kernel",
    "certify_kernels",
    "kernel_verdict_table",
    "verdicts_to_json",
]

#: widening bound for abstract (non-unrolled) loop execution
MAX_LOOP_PASSES = 8
#: largest concrete ``range`` the interpreter unrolls exactly
MAX_UNROLL = 256
#: inlining depth bound (recursion guard for helper calls)
MAX_CALL_DEPTH = 16

#: AST constructs outside the interpreter's soundness boundary.  Shared
#: with the ``footprint-undeclared-uninferable`` lint rule so the two
#: tools refuse the same language subset.
UNINTERPRETABLE_NODES = (
    ast.Try,
    ast.With,
    ast.AsyncWith,
    ast.AsyncFor,
    ast.Lambda,
    ast.Yield,
    ast.YieldFrom,
    ast.Await,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
    ast.Global,
    ast.Nonlocal,
    ast.Starred,
    ast.Match,
)


class SymbolicRefusal(Exception):
    """The interpreter refuses to analyze a kernel, with a reason.

    Raised for constructs outside the abstract domain (unresolvable slice
    bounds, unsupported statements, calls it cannot inline).  A refusal is
    a *sound* outcome: the kernel gets no inferred footprint rather than a
    wrong one.
    """


# -- abstract values ----------------------------------------------------------------


class _Unknown:
    """Singleton top value: statically nothing is known."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "UNKNOWN"


UNKNOWN = _Unknown()


@dataclass(frozen=True)
class Interval:
    """An integer known only to lie in ``[lo, hi]`` (both inclusive)."""

    lo: int
    hi: int


@dataclass(frozen=True)
class PlaneView:
    """A rectangular window of shared plane *plane*, absolute framed coords."""

    plane: int
    y0: int
    y1: int
    x0: int
    x1: int
    frame: tuple[int, int]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.y1 - self.y0, self.x1 - self.x0)

    @property
    def window(self) -> tuple[int, int, int, int]:
        return (self.y0, self.y1, self.x0, self.x1)


@dataclass(frozen=True)
class LocalArray:
    """Kernel-local scratch array; accesses are invisible to other tasks."""

    shape: tuple[int, int] | None = None


@dataclass(frozen=True)
class PlaneList:
    """The ``planes`` parameter: indexable list of full-frame plane views."""

    nplanes: int
    frame: tuple[int, int]


@dataclass
class _Func:
    """A function defined *inside* an interpreted function (closure)."""

    node: ast.FunctionDef
    closure: dict
    globals_: dict


@dataclass(frozen=True)
class _BoundMethod:
    """Attribute access ``obj.name`` on an abstract array, pending call."""

    obj: object  # PlaneView | LocalArray
    name: str


#: opaque-but-concrete stand-in (e.g. ``src.dtype``): safe to pass around,
#: refuses to be a window bound
_OPAQUE = object()

#: reductions that read the whole view (mirrors shadow._READ_METHODS)
_READ_METHODS = {"sum", "any", "all", "min", "max", "mean"}
#: numpy allocation calls that yield fresh local scratch
_ALLOC_FUNCS = {"empty", "zeros", "ones", "full"}
_ALLOC_LIKE_FUNCS = {"empty_like", "zeros_like", "ones_like", "full_like"}

#: safe classes the interpreter may construct with concrete arguments
_SAFE_CLASSES = (Tile, slice)

#: builtins callable on fully-concrete arguments
_SAFE_BUILTINS = {
    "max": max, "min": min, "int": int, "bool": bool, "float": float,
    "abs": abs, "len": len, "range": range, "slice": slice, "divmod": divmod,
    "round": round, "tuple": tuple, "list": list,
}


def _is_concrete(v) -> bool:
    """True for values the interpreter treats as exact Python objects."""
    if isinstance(v, (_Unknown, Interval, PlaneView, LocalArray, PlaneList,
                      _Func, _BoundMethod)):
        return False
    if v is _OPAQUE:
        return False
    if isinstance(v, (tuple, list)):
        return all(_is_concrete(x) for x in v)
    return True


def _summary_fused_buffers(args, kwargs, interp):
    """Model of ``repro.sandpile.kernels._fused_buffers``: four fresh local
    ``(h+2, w+2)`` scratch planes (the thread-local cache is invisible to
    other tasks, so fresh planes are an exact abstraction)."""
    if len(args) < 2 or not isinstance(args[0], int) or not isinstance(args[1], int):
        raise SymbolicRefusal("_fused_buffers with non-concrete extents")
    h, w = args[0], args[1]
    return tuple(LocalArray((h + 2, w + 2)) for _ in range(4))


#: ``module.qualname`` -> fn(args, kwargs, interp) -> abstract return value.
#: Summaries model helpers whose bodies reach outside the abstract domain
#: (thread-local caches, foreign libraries) without giving up on the caller.
SUMMARIES: dict[str, Callable] = {
    "repro.sandpile.kernels._fused_buffers": _summary_fused_buffers,
}


def _qualname(fn) -> str:
    return f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', '?')}"


# -- the interpreter ----------------------------------------------------------------

_NORMAL, _RETURN, _BREAK, _CONTINUE = "normal", "return", "break", "continue"


class _Interp:
    """One inference run: accumulates may-read/may-write windows."""

    def __init__(self, frame: tuple[int, int]) -> None:
        self.frame = frame
        self.reads: set[tuple[int, int, int, int, int]] = set()
        self.writes: set[tuple[int, int, int, int, int]] = set()
        self.depth = 0

    # -- recording -------------------------------------------------------------

    def _record(self, into: set, view: PlaneView,
                window: tuple[int, int, int, int] | None = None) -> None:
        y0, y1, x0, x1 = window if window is not None else view.window
        if y0 >= y1 or x0 >= x1:
            return
        into.add((view.plane, y0, y1, x0, x1))

    def read(self, view: PlaneView, window=None) -> None:
        self._record(self.reads, view, window)

    def write(self, view: PlaneView, window=None) -> None:
        self._record(self.writes, view, window)

    def footprint(self, source: str = "inferred") -> Footprint:
        reads = set()
        writes = set()
        for p, y0, y1, x0, x1 in self.reads:
            reads |= rect_cells(p, y0, y1, x0, x1)
        for p, y0, y1, x0, x1 in self.writes:
            writes |= rect_cells(p, y0, y1, x0, x1)
        return Footprint.of(reads, writes, source=source)

    # -- function entry ----------------------------------------------------------

    def call_function(self, fn: Callable, args: list, kwargs: dict) -> object:
        """Inline-interpret a real Python function on abstract arguments."""
        if self.depth >= MAX_CALL_DEPTH:
            raise SymbolicRefusal(f"call depth exceeds {MAX_CALL_DEPTH} (recursion?)")
        py_func = getattr(fn, "py_func", None)
        if py_func is not None and callable(py_func):  # numba dispatcher
            fn = py_func
        try:
            src = textwrap.dedent(inspect.getsource(fn))
        except (OSError, TypeError) as exc:
            raise SymbolicRefusal(f"no source for {_qualname(fn)}: {exc}") from None
        tree = ast.parse(src)
        fndef = tree.body[0]
        if not isinstance(fndef, (ast.FunctionDef, ast.AsyncFunctionDef)):
            raise SymbolicRefusal(f"{_qualname(fn)} is not a plain function")
        env = self._bind_params(fndef, args, kwargs, closure={}, globals_=fn.__globals__)
        self.depth += 1
        try:
            return self._exec_body(fndef, env, fn.__globals__)
        finally:
            self.depth -= 1

    def _call_inner(self, func: _Func, args: list, kwargs: dict) -> object:
        if self.depth >= MAX_CALL_DEPTH:
            raise SymbolicRefusal(f"call depth exceeds {MAX_CALL_DEPTH} (recursion?)")
        env = self._bind_params(func.node, args, kwargs, closure=func.closure,
                                globals_=func.globals_)
        self.depth += 1
        try:
            return self._exec_body(func.node, env, func.globals_)
        finally:
            self.depth -= 1

    def _bind_params(self, fndef, args: list, kwargs: dict, *, closure: dict,
                     globals_: dict) -> dict:
        a = fndef.args
        if a.vararg or a.kwarg:
            raise SymbolicRefusal(f"{fndef.name}: *args/**kwargs parameters unsupported")
        env = dict(closure)
        env["__globals__"] = globals_
        pos_names = [p.arg for p in a.posonlyargs + a.args]
        if len(args) > len(pos_names):
            raise SymbolicRefusal(f"{fndef.name}: too many positional arguments")
        bound = dict(zip(pos_names, args))
        for k, v in kwargs.items():
            if k in bound:
                raise SymbolicRefusal(f"{fndef.name}: duplicate argument {k!r}")
            bound[k] = v
        # positional defaults align to the tail of pos_names
        defaults = a.defaults
        for name, dflt in zip(pos_names[len(pos_names) - len(defaults):], defaults):
            if name not in bound:
                bound[name] = self.eval(dflt, env)
        for p, dflt in zip(a.kwonlyargs, a.kw_defaults):
            if p.arg not in bound:
                if dflt is None:
                    raise SymbolicRefusal(f"{fndef.name}: missing kw-only arg {p.arg!r}")
                bound[p.arg] = self.eval(dflt, env)
        missing = [n for n in pos_names + [p.arg for p in a.kwonlyargs] if n not in bound]
        if missing:
            raise SymbolicRefusal(f"{fndef.name}: missing argument(s) {missing}")
        env.update(bound)
        return env

    def _exec_body(self, fndef, env: dict, globals_: dict) -> object:
        env.setdefault("__globals__", globals_)
        self._retvals: list = getattr(self, "_retvals", [])
        marker = len(self._retvals)
        flows = self.exec_block(fndef.body, env)
        del flows  # falling off the end returns None
        rets = self._retvals[marker:]
        del self._retvals[marker:]
        if not rets:
            return None
        if len(rets) == 1:
            return rets[0]
        first = rets[0]
        return first if all(_is_concrete(r) and r == first for r in rets[1:]) else UNKNOWN

    # -- statements --------------------------------------------------------------

    def exec_block(self, stmts: list, env: dict) -> set[str]:
        """Execute statements; returns the set of possible exit flows."""
        pending: set[str] = set()
        for st in stmts:
            flows = self.exec_stmt(st, env)
            pending |= flows - {_NORMAL}
            if _NORMAL not in flows:
                return pending or flows
        return pending | {_NORMAL}

    def exec_stmt(self, node: ast.stmt, env: dict) -> set[str]:
        if isinstance(node, UNINTERPRETABLE_NODES):
            raise SymbolicRefusal(
                f"unsupported construct {type(node).__name__} at line {node.lineno}"
            )
        if isinstance(node, ast.Expr):
            self.eval(node.value, env)
            return {_NORMAL}
        if isinstance(node, ast.Assign):
            value = self.eval(node.value, env)
            for target in node.targets:
                self._assign(target, value, env)
            return {_NORMAL}
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._assign(node.target, self.eval(node.value, env), env)
            return {_NORMAL}
        if isinstance(node, ast.AugAssign):
            return self._aug_assign(node, env)
        if isinstance(node, ast.If):
            return self._exec_if(node, env)
        if isinstance(node, ast.While):
            return self._exec_while(node, env)
        if isinstance(node, ast.For):
            return self._exec_for(node, env)
        if isinstance(node, ast.Return):
            self._retvals.append(
                self.eval(node.value, env) if node.value is not None else None
            )
            return {_RETURN}
        if isinstance(node, ast.Raise):
            # an exceptional exit terminates the path; arguments (usually
            # f-strings over loop state) carry no window accesses worth
            # recording, so they are not evaluated
            return {_RETURN}
        if isinstance(node, ast.Break):
            return {_BREAK}
        if isinstance(node, ast.Continue):
            return {_CONTINUE}
        if isinstance(node, ast.Pass):
            return {_NORMAL}
        if isinstance(node, ast.Assert):
            self.eval(node.test, env)
            return {_NORMAL}
        if isinstance(node, ast.FunctionDef):
            snapshot = {k: v for k, v in env.items() if k != "__globals__"}
            env[node.name] = _Func(node, snapshot, env["__globals__"])
            return {_NORMAL}
        raise SymbolicRefusal(
            f"unsupported statement {type(node).__name__} at line {node.lineno}"
        )

    def _assign(self, target: ast.expr, value, env: dict) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            if not isinstance(value, (tuple, list)):
                raise SymbolicRefusal("tuple-unpacking a non-tuple value")
            if len(target.elts) != len(value):
                raise SymbolicRefusal("tuple-unpacking length mismatch")
            for t, v in zip(target.elts, value):
                self._assign(t, v, env)
            return
        if isinstance(target, ast.Subscript):
            base = self.eval(target.value, env)
            if isinstance(base, PlaneView):
                self.write(base, self._key_window(base, target.slice, env))
                if isinstance(value, PlaneView):
                    self.read(value)
                return
            if isinstance(base, LocalArray):
                if isinstance(value, PlaneView):
                    self.read(value)
                return
            raise SymbolicRefusal(
                f"subscript store into {type(base).__name__} at line {target.lineno}"
            )
        raise SymbolicRefusal(
            f"unsupported assignment target {type(target).__name__}"
        )

    def _aug_assign(self, node: ast.AugAssign, env: dict) -> set[str]:
        value = self.eval(node.value, env)
        target = node.target
        if isinstance(target, ast.Name):
            cur = self._load_name(target.id, env)
            if isinstance(cur, PlaneView):
                # in-place update of a tracked window: read + write
                if isinstance(value, PlaneView):
                    self.read(value)
                self.read(cur)
                self.write(cur)
                return {_NORMAL}
            env[target.id] = self._binop(node.op, cur, value, env)
            return {_NORMAL}
        if isinstance(target, ast.Subscript):
            base = self.eval(target.value, env)
            if isinstance(base, PlaneView):
                win = self._key_window(base, target.slice, env)
                if isinstance(value, PlaneView):
                    self.read(value)
                self.read(base, win)
                self.write(base, win)
                return {_NORMAL}
            if isinstance(base, LocalArray):
                if isinstance(value, PlaneView):
                    self.read(value)
                return {_NORMAL}
            raise SymbolicRefusal(
                f"augmented store into {type(base).__name__} at line {node.lineno}"
            )
        raise SymbolicRefusal("unsupported augmented-assignment target")

    def _exec_if(self, node: ast.If, env: dict) -> set[str]:
        test = self.eval(node.test, env)
        truth = self._truthiness(test)
        if truth is True:
            return self.exec_block(node.body, env)
        if truth is False:
            return self.exec_block(node.orelse, env) if node.orelse else {_NORMAL}
        env_true = dict(env)
        env_false = dict(env)
        flows = self.exec_block(node.body, env_true)
        flows |= self.exec_block(node.orelse, env_false) if node.orelse else {_NORMAL}
        self._join_into(env, env_true, env_false)
        return flows

    def _exec_while(self, node: ast.While, env: dict) -> set[str]:
        if node.orelse:
            raise SymbolicRefusal("while/else is unsupported")
        flows_seen: set[str] = set()
        for npass in range(MAX_LOOP_PASSES):
            before = (len(self.reads), len(self.writes))
            snapshot = dict(env)
            test = self.eval(node.test, env)
            truth = self._truthiness(test)
            if truth is False:
                return flows_seen - {_BREAK, _CONTINUE} | {_NORMAL}
            body_env = dict(env)
            flows = self.exec_block(node.body, body_env)
            flows_seen |= flows
            self._join_into(env, env, body_env)
            if npass >= 1:
                self._widen(env, snapshot)
            stable = (len(self.reads), len(self.writes)) == before and env == snapshot
            if stable:
                # access sets and environment are at fixpoint: further
                # passes observe nothing new, so the abstraction covers
                # every concrete iteration count (including zero, via the
                # env join with the pre-loop state)
                return flows_seen - {_BREAK, _CONTINUE} | {_NORMAL}
        raise SymbolicRefusal(
            f"while loop at line {node.lineno} did not reach an access fixpoint "
            f"in {MAX_LOOP_PASSES} abstract passes"
        )

    def _exec_for(self, node: ast.For, env: dict) -> set[str]:
        if node.orelse:
            raise SymbolicRefusal("for/else is unsupported")
        it = self.eval(node.iter, env)
        if isinstance(it, range):
            items: list = list(it)
        elif isinstance(it, (tuple, list)):
            items = list(it)
        else:
            raise SymbolicRefusal(
                f"for-loop over {type(it).__name__} at line {node.lineno} "
                f"(only concrete ranges/tuples are iterable)"
            )
        if len(items) > MAX_UNROLL:
            return self._abstract_for(node, items, env)
        flows_seen: set[str] = {_NORMAL}
        for item in items:
            self._assign(node.target, item, env)
            flows = self.exec_block(node.body, env)
            flows_seen |= flows
            if _BREAK in flows and _NORMAL not in flows:
                break
        return flows_seen - {_BREAK, _CONTINUE} | {_NORMAL}

    def _abstract_for(self, node: ast.For, items: list, env: dict) -> set[str]:
        """Summarise a long concrete range: loop var becomes an interval."""
        if not all(isinstance(i, int) for i in items):
            raise SymbolicRefusal(
                f"cannot summarise for-loop over non-int items at line {node.lineno}"
            )
        self._assign(node.target, Interval(min(items), max(items)), env)
        flows_seen: set[str] = set()
        for npass in range(MAX_LOOP_PASSES):
            before = (len(self.reads), len(self.writes))
            snapshot = dict(env)
            body_env = dict(env)
            flows_seen |= self.exec_block(node.body, body_env)
            self._join_into(env, env, body_env)
            if npass >= 1:
                self._widen(env, snapshot)
            if (len(self.reads), len(self.writes)) == before and env == snapshot:
                return flows_seen - {_BREAK, _CONTINUE} | {_NORMAL}
        raise SymbolicRefusal(
            f"for loop at line {node.lineno} did not reach an access fixpoint"
        )

    def _widen(self, env: dict, snapshot: dict) -> None:
        """Widen loop-carried values that are still changing to UNKNOWN.

        Applied from the second abstract pass on: a value that differs from
        the previous pass (a counter, a growing interval) will never settle
        by re-execution, so it jumps straight to top — which is what makes
        the access-set fixpoint terminate.  Sound for a may-analysis: an
        UNKNOWN used as a window bound later refuses, never under-reports.
        """
        for k, v in list(env.items()):
            if k not in snapshot:
                env[k] = UNKNOWN
                continue
            old = snapshot[k]
            same = (old is v) or (
                type(old) is type(v) and not isinstance(v, _Unknown) and old == v
            )
            if not same and not isinstance(v, _Unknown):
                env[k] = UNKNOWN

    def _join_into(self, dst: dict, a: dict, b: dict) -> None:
        """Join two branch environments into *dst* (widening on mismatch)."""
        a, b = dict(a), dict(b)  # dst may alias a or b
        dst.clear()
        for k in a.keys() | b.keys():
            if k not in a or k not in b:
                dst[k] = UNKNOWN
                continue
            va, vb = a[k], b[k]
            if va is vb:
                dst[k] = va
            elif _is_concrete(va) and _is_concrete(vb) and type(va) is type(vb) and va == vb:
                dst[k] = va
            elif (isinstance(va, (PlaneView, LocalArray, Interval))
                    and type(va) is type(vb) and va == vb):
                dst[k] = va
            elif isinstance(va, int) and isinstance(vb, int):
                dst[k] = Interval(min(va, vb), max(va, vb))
            elif isinstance(va, (int, Interval)) and isinstance(vb, (int, Interval)):
                alo, ahi = (va, va) if isinstance(va, int) else (va.lo, va.hi)
                blo, bhi = (vb, vb) if isinstance(vb, int) else (vb.lo, vb.hi)
                dst[k] = Interval(min(alo, blo), max(ahi, bhi))
            else:
                dst[k] = UNKNOWN

    # -- expressions --------------------------------------------------------------

    def eval(self, node: ast.expr, env: dict) -> object:
        if isinstance(node, UNINTERPRETABLE_NODES):
            raise SymbolicRefusal(
                f"unsupported construct {type(node).__name__} at line {node.lineno}"
            )
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return self._load_name(node.id, env, line=node.lineno)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, env)
        if isinstance(node, ast.Tuple):
            return tuple(self.eval(e, env) for e in node.elts)
        if isinstance(node, ast.List):
            return [self.eval(e, env) for e in node.elts]
        if isinstance(node, ast.BinOp):
            lhs = self.eval(node.left, env)
            rhs = self.eval(node.right, env)
            return self._binop(node.op, lhs, rhs, env)
        if isinstance(node, ast.UnaryOp):
            return self._unaryop(node, env)
        if isinstance(node, ast.Compare):
            return self._compare(node, env)
        if isinstance(node, ast.BoolOp):
            return self._boolop(node, env)
        if isinstance(node, ast.IfExp):
            test = self._truthiness(self.eval(node.test, env))
            if test is True:
                return self.eval(node.body, env)
            if test is False:
                return self.eval(node.orelse, env)
            a = self.eval(node.body, env)
            b = self.eval(node.orelse, env)
            return a if (_is_concrete(a) and _is_concrete(b) and a == b) else UNKNOWN
        if isinstance(node, ast.Subscript):
            return self._subscript_load(node, env)
        if isinstance(node, ast.Call):
            return self._call(node, env)
        if isinstance(node, ast.Slice):
            return self._eval_slice(node, env)
        if isinstance(node, ast.JoinedStr):
            return UNKNOWN  # f-strings only feed error messages
        raise SymbolicRefusal(
            f"unsupported expression {type(node).__name__} at line {node.lineno}"
        )

    def _load_name(self, name: str, env: dict, *, line: int = 0):
        if name in env:
            return env[name]
        globals_ = env.get("__globals__", {})
        if name in globals_:
            return globals_[name]
        if name in _SAFE_BUILTINS:
            return _SAFE_BUILTINS[name]
        if name in ("True", "False", "None"):  # pragma: no cover - ast.Constant
            return {"True": True, "False": False, "None": None}[name]
        raise SymbolicRefusal(f"unresolvable name {name!r} at line {line}")

    def _eval_attribute(self, node: ast.Attribute, env: dict):
        base = self.eval(node.value, env)
        attr = node.attr
        if isinstance(base, PlaneView):
            if attr == "shape":
                return base.shape
            if attr == "dtype":
                return _OPAQUE
            return _BoundMethod(base, attr)
        if isinstance(base, LocalArray):
            if attr == "shape":
                return base.shape if base.shape is not None else UNKNOWN
            if attr == "dtype":
                return _OPAQUE
            return _BoundMethod(base, attr)
        if isinstance(base, (_Unknown, Interval)):
            return UNKNOWN
        if base is _OPAQUE:
            return _OPAQUE
        try:
            return getattr(base, attr)
        except AttributeError as exc:
            raise SymbolicRefusal(f"attribute {attr!r} missing: {exc}") from None

    # -- operators ---------------------------------------------------------------

    _BIN_OPS = {
        ast.Add: lambda a, b: a + b,
        ast.Sub: lambda a, b: a - b,
        ast.Mult: lambda a, b: a * b,
        ast.Div: lambda a, b: a / b,
        ast.FloorDiv: lambda a, b: a // b,
        ast.Mod: lambda a, b: a % b,
        ast.Pow: lambda a, b: a ** b,
        ast.LShift: lambda a, b: a << b,
        ast.RShift: lambda a, b: a >> b,
        ast.BitAnd: lambda a, b: a & b,
        ast.BitOr: lambda a, b: a | b,
        ast.BitXor: lambda a, b: a ^ b,
    }

    def _binop(self, op, lhs, rhs, env: dict):
        arrays = [v for v in (lhs, rhs) if isinstance(v, (PlaneView, LocalArray))]
        if arrays:
            shape = None
            for v in arrays:
                if isinstance(v, PlaneView):
                    self.read(v)
                    shape = v.shape
                elif v.shape is not None:
                    shape = v.shape
            return LocalArray(shape)
        if isinstance(lhs, _Unknown) or isinstance(rhs, _Unknown):
            return UNKNOWN
        if isinstance(lhs, Interval) or isinstance(rhs, Interval):
            return self._interval_binop(op, lhs, rhs)
        fn = self._BIN_OPS.get(type(op))
        if fn is None:
            raise SymbolicRefusal(f"unsupported operator {type(op).__name__}")
        try:
            return fn(lhs, rhs)
        except TypeError as exc:
            raise SymbolicRefusal(f"operator failed on concrete values: {exc}") from None

    def _interval_binop(self, op, lhs, rhs):
        def bounds(v):
            if isinstance(v, Interval):
                return v.lo, v.hi
            if isinstance(v, int):
                return v, v
            raise SymbolicRefusal("interval arithmetic with non-integer operand")

        alo, ahi = bounds(lhs)
        blo, bhi = bounds(rhs)
        if isinstance(op, ast.Add):
            return Interval(alo + blo, ahi + bhi)
        if isinstance(op, ast.Sub):
            return Interval(alo - bhi, ahi - blo)
        if isinstance(op, ast.Mult):
            corners = [alo * blo, alo * bhi, ahi * blo, ahi * bhi]
            return Interval(min(corners), max(corners))
        return UNKNOWN

    def _unaryop(self, node: ast.UnaryOp, env: dict):
        v = self.eval(node.operand, env)
        if isinstance(v, PlaneView):
            self.read(v)
            return LocalArray(v.shape)
        if isinstance(v, LocalArray):
            return LocalArray(v.shape)
        if isinstance(v, _Unknown):
            return UNKNOWN
        if isinstance(v, Interval):
            if isinstance(node.op, ast.USub):
                return Interval(-v.hi, -v.lo)
            return UNKNOWN
        if isinstance(node.op, ast.USub):
            return -v
        if isinstance(node.op, ast.UAdd):
            return +v
        if isinstance(node.op, ast.Not):
            return not v
        if isinstance(node.op, ast.Invert):
            return ~v
        raise SymbolicRefusal("unsupported unary operator")

    _CMP_OPS = {
        ast.Eq: lambda a, b: a == b,
        ast.NotEq: lambda a, b: a != b,
        ast.Lt: lambda a, b: a < b,
        ast.LtE: lambda a, b: a <= b,
        ast.Gt: lambda a, b: a > b,
        ast.GtE: lambda a, b: a >= b,
        ast.Is: lambda a, b: a is b,
        ast.IsNot: lambda a, b: a is not b,
        ast.In: lambda a, b: a in b,
        ast.NotIn: lambda a, b: a not in b,
    }

    def _compare(self, node: ast.Compare, env: dict):
        values = [self.eval(node.left, env)] + [self.eval(c, env) for c in node.comparators]
        arrays = [v for v in values if isinstance(v, (PlaneView, LocalArray))]
        if arrays:
            shape = None
            for v in arrays:
                if isinstance(v, PlaneView):
                    self.read(v)
                    shape = v.shape
                elif v.shape is not None:
                    shape = v.shape
            return LocalArray(shape)
        if any(isinstance(v, (_Unknown, Interval)) for v in values):
            return UNKNOWN
        result = True
        for lhs, op, rhs in zip(values, node.ops, values[1:]):
            fn = self._CMP_OPS.get(type(op))
            if fn is None:
                raise SymbolicRefusal(f"unsupported comparison {type(op).__name__}")
            result = result and bool(fn(lhs, rhs))
        return result

    def _boolop(self, node: ast.BoolOp, env: dict):
        is_and = isinstance(node.op, ast.And)
        for i, expr in enumerate(node.values):
            v = self.eval(expr, env)
            truth = self._truthiness(v)
            last = i == len(node.values) - 1
            if truth is None:
                # evaluate the remainder for their access side effects
                for rest in node.values[i + 1:]:
                    self.eval(rest, env)
                return UNKNOWN
            if last:
                return v
            if is_and and truth is False:
                return v
            if not is_and and truth is True:
                return v
        return UNKNOWN  # pragma: no cover - unreachable

    def _truthiness(self, v) -> bool | None:
        """Concrete truthiness of an abstract value, or None when unknown."""
        if isinstance(v, (PlaneView, LocalArray, _Unknown, Interval)):
            return None
        if v is _OPAQUE:
            return None
        try:
            return bool(v)
        except Exception:  # pragma: no cover - exotic concrete values
            return None

    # -- subscripts ---------------------------------------------------------------

    def _eval_slice(self, node: ast.Slice, env: dict) -> slice:
        lo = self.eval(node.lower, env) if node.lower is not None else None
        hi = self.eval(node.upper, env) if node.upper is not None else None
        step = self.eval(node.step, env) if node.step is not None else None
        return slice(lo, hi, step)

    def _resolve_axis(self, idx, n: int, what: str) -> tuple[int, int, bool]:
        """Half-open extent of one basic index on an axis of size *n*.

        Returns ``(lo, hi, is_slice)``.  Interval bounds resolve to their
        rectangular hull (sound may-access superset); anything unresolvable
        raises :class:`SymbolicRefusal`.
        """
        if isinstance(idx, slice):
            if idx.step not in (None, 1):
                raise SymbolicRefusal(f"{what}: non-unit slice step is unsupported")

            def bound(v, default, kind):
                if v is None:
                    return default, default
                if isinstance(v, (int, np.integer)):
                    v = int(v)
                    if v < 0:
                        v += n
                    return max(0, min(v, n)), max(0, min(v, n))
                if isinstance(v, Interval):
                    if v.lo < 0:
                        raise SymbolicRefusal(
                            f"{what}: negative interval slice bound [{v.lo}, {v.hi}]"
                        )
                    return max(0, min(v.lo, n)), max(0, min(v.hi, n))
                raise SymbolicRefusal(
                    f"{what}: slice {kind} bound is not statically resolvable "
                    f"({type(v).__name__})"
                )

            lo_lo, _ = bound(idx.start, 0, "start")
            _, hi_hi = bound(idx.stop, n, "stop")
            return lo_lo, max(hi_hi, lo_lo), True
        if isinstance(idx, (int, np.integer)):
            i = int(idx)
            if i < 0:
                i += n
            if not (0 <= i < n):
                raise SymbolicRefusal(f"{what}: index {idx} out of bounds for axis {n}")
            return i, i + 1, False
        if isinstance(idx, Interval):
            if idx.lo < 0:
                raise SymbolicRefusal(f"{what}: negative interval index")
            return max(0, min(idx.lo, n - 1)), max(0, min(idx.hi, n - 1)) + 1, False
        raise SymbolicRefusal(
            f"{what}: index is not statically resolvable ({type(idx).__name__})"
        )

    def _resolve_key(self, view: PlaneView, key_node: ast.expr, env: dict):
        """Resolve a subscript key against *view*.

        Returns ``(window, composable)``: the absolute window selected and
        whether the key was a basic 2D slice pair (then the result stays a
        tracked sub-view, mirroring ShadowPlane).
        """
        h, w = view.shape
        if isinstance(key_node, ast.Tuple) and len(key_node.elts) == 2:
            parts = [self.eval(e, env) for e in key_node.elts]
            ylo, yhi, ys = self._resolve_axis(parts[0], h, "row")
            xlo, xhi, xs = self._resolve_axis(parts[1], w, "column")
            window = (view.y0 + ylo, view.y0 + yhi, view.x0 + xlo, view.x0 + xhi)
            return window, ys and xs
        key = self.eval(key_node, env)
        if isinstance(key, tuple) and len(key) == 2:
            ylo, yhi, ys = self._resolve_axis(key[0], h, "row")
            xlo, xhi, xs = self._resolve_axis(key[1], w, "column")
            window = (view.y0 + ylo, view.y0 + yhi, view.x0 + xlo, view.x0 + xhi)
            return window, ys and xs
        if key is Ellipsis:
            return view.window, True
        ylo, yhi, _ = self._resolve_axis(key, h, "row")
        return (view.y0 + ylo, view.y0 + yhi, view.x0, view.x1), False

    def _key_window(self, view: PlaneView, key_node: ast.expr, env: dict):
        window, _ = self._resolve_key(view, key_node, env)
        return window

    def _subscript_load(self, node: ast.Subscript, env: dict):
        base = self.eval(node.value, env)
        if isinstance(base, PlaneList):
            idx = self.eval(node.slice, env)
            if not isinstance(idx, (int, np.integer)):
                raise SymbolicRefusal("plane index is not a concrete integer")
            fh, fw = base.frame
            return PlaneView(int(idx), 0, fh, 0, fw, base.frame)
        if isinstance(base, PlaneView):
            window, composable = self._resolve_key(base, node.slice, env)
            if composable:
                y0, y1, x0, x1 = window
                return PlaneView(base.plane, y0, y1, x0, x1, base.frame)
            # scalar / 1D / hull selections: the read happens now, and the
            # result is no longer a tracked window (mirrors ShadowPlane)
            self.read(base, window)
            y0, y1, x0, x1 = window
            return UNKNOWN if (y1 - y0, x1 - x0) == (1, 1) else LocalArray(None)
        if isinstance(base, LocalArray):
            self.eval(node.slice, env)  # bound expressions may read planes
            return LocalArray(None)
        if isinstance(base, (tuple, list)):
            idx = self.eval(node.slice, env)
            if isinstance(idx, (int, np.integer)):
                try:
                    return base[int(idx)]
                except IndexError:
                    raise SymbolicRefusal("concrete subscript out of range") from None
            if isinstance(idx, slice) and _is_concrete(idx):
                return base[idx]
            raise SymbolicRefusal("non-concrete subscript of a concrete sequence")
        if isinstance(base, _Unknown):
            return UNKNOWN
        if _is_concrete(base):
            idx = self.eval(node.slice, env)
            if _is_concrete(idx):
                try:
                    return base[idx]
                except Exception as exc:
                    raise SymbolicRefusal(f"concrete subscript failed: {exc}") from None
        raise SymbolicRefusal(
            f"subscript of {type(base).__name__} at line {node.lineno}"
        )

    # -- calls --------------------------------------------------------------------

    def _call(self, node: ast.Call, env: dict):
        callee = self.eval(node.func, env)
        args = [self.eval(a, env) for a in node.args]
        kwargs = {}
        for kw in node.keywords:
            if kw.arg is None:
                raise SymbolicRefusal("**kwargs call expansion is unsupported")
            kwargs[kw.arg] = self.eval(kw.value, env)

        if isinstance(callee, _BoundMethod):
            return self._call_method(callee, args, kwargs)
        if isinstance(callee, _Func):
            return self._call_inner(callee, args, kwargs)
        if isinstance(callee, _Unknown):
            raise SymbolicRefusal("call through an unknown callee")

        summary = SUMMARIES.get(_qualname(callee))
        if summary is not None:
            return summary(args, kwargs, self)

        if isinstance(callee, np.ufunc):
            return self._call_ufunc(callee, args, kwargs)
        if callee in (np.zeros, np.empty, np.ones, np.full):
            shape = args[0] if args else kwargs.get("shape")
            if (isinstance(shape, tuple) and len(shape) == 2
                    and all(isinstance(s, int) for s in shape)):
                return LocalArray((shape[0], shape[1]))
            return LocalArray(None)
        if callee in (np.zeros_like, np.empty_like, np.ones_like, np.full_like):
            proto = args[0] if args else None
            shape = proto.shape if isinstance(proto, (PlaneView, LocalArray)) else None
            return LocalArray(shape if isinstance(shape, tuple) else None)

        if callee in _SAFE_BUILTINS.values():
            if all(_is_concrete(a) for a in args) and all(
                _is_concrete(v) for v in kwargs.values()
            ):
                try:
                    return callee(*args, **kwargs)
                except Exception as exc:
                    raise SymbolicRefusal(f"builtin call failed: {exc}") from None
            if callee in (max, min) and all(
                isinstance(a, (int, Interval)) for a in args
            ) and not kwargs:
                lows = [a.lo if isinstance(a, Interval) else a for a in args]
                highs = [a.hi if isinstance(a, Interval) else a for a in args]
                agg = max if callee is max else min
                return Interval(agg(lows), agg(highs))
            if callee in (int, bool, float, abs):
                a = args[0] if args else UNKNOWN
                return a if isinstance(a, Interval) and callee is int else UNKNOWN
            raise SymbolicRefusal(
                f"builtin {getattr(callee, '__name__', callee)!r} on abstract arguments"
            )

        if isinstance(callee, type) and issubclass(callee, _SAFE_CLASSES):
            if all(_is_concrete(a) for a in args) and all(
                _is_concrete(v) for v in kwargs.values()
            ):
                return callee(*args, **kwargs)
            raise SymbolicRefusal(
                f"constructing {callee.__name__} from abstract arguments"
            )

        if callable(callee):
            module = getattr(callee, "__module__", "") or ""
            if module.startswith("repro.") or getattr(callee, "py_func", None):
                return self.call_function(callee, args, kwargs)
            raise SymbolicRefusal(
                f"call to foreign function {_qualname(callee)} is outside the "
                f"soundness boundary"
            )
        raise SymbolicRefusal(f"call to non-callable {type(callee).__name__}")

    def _call_method(self, bm: _BoundMethod, args: list, kwargs: dict):
        obj = bm.obj
        if isinstance(obj, PlaneView):
            if bm.name in _READ_METHODS:
                self.read(obj)
                return UNKNOWN
            if bm.name in ("astype", "copy", "view", "reshape"):
                self.read(obj)
                return LocalArray(obj.shape)
            if bm.name == "fill":
                self.write(obj)
                return None
            raise SymbolicRefusal(f"method .{bm.name}() on a tracked plane window")
        if isinstance(obj, LocalArray):
            if bm.name in _READ_METHODS:
                return UNKNOWN
            if bm.name in ("astype", "copy", "view", "reshape", "fill"):
                return LocalArray(obj.shape)
            raise SymbolicRefusal(f"method .{bm.name}() on a local array")
        raise SymbolicRefusal("method call on unsupported receiver")

    def _call_ufunc(self, ufunc: np.ufunc, args: list, kwargs: dict):
        out = kwargs.get("out")
        outs = out if isinstance(out, tuple) else (out,) if out is not None else ()
        for a in args:
            if isinstance(a, PlaneView) and not any(o is a for o in outs):
                self.read(a)
        result_shape = None
        for a in args:
            if isinstance(a, (PlaneView, LocalArray)) and a.shape is not None:
                result_shape = a.shape
        for o in outs:
            if isinstance(o, PlaneView):
                if any(a is o for a in args):
                    self.read(o)
                self.write(o)
        if outs:
            return outs[0] if len(outs) == 1 else tuple(outs)
        return LocalArray(result_shape)


# -- inference entry points ---------------------------------------------------------


#: (registry version, task, shape) -> Footprint | SymbolicRefusal
_CACHE: dict[tuple, object] = {}


def infer_footprint(task: TileTask, shape: tuple[int, int]) -> Footprint:
    """Infer *task*'s footprint from its kernel's source (``source="inferred"``).

    Raises :class:`SymbolicRefusal` when the kernel steps outside the
    abstract domain — the caller decides whether that is an error
    (certification) or a fallback trigger (discovery tracing).
    """
    key = (registry_version(), task, shape)
    hit = _CACHE.get(key)
    if hit is not None:
        if isinstance(hit, SymbolicRefusal):
            raise hit
        return hit
    fn = get_tile_kernel(task.kernel)
    interp = _Interp(shape)
    nplanes = max(task.src, task.dst) + 1
    planes = PlaneList(nplanes, shape)
    try:
        interp.call_function(fn, [planes, task], {})
    except SymbolicRefusal as exc:
        refusal = SymbolicRefusal(f"kernel {task.kernel!r}: {exc}")
        _CACHE[key] = refusal
        raise refusal from None
    fp = interp.footprint()
    _CACHE[key] = fp
    return fp


def inference_refusal(name: str) -> str | None:
    """Why symbolic inference refuses kernel *name*, or None if it succeeds.

    Returns None as well when *name* is not in the runtime registry (there
    is nothing to interpret).  Used by the
    ``footprint-undeclared-uninferable`` lint rule.
    """
    if name not in registered_tile_kernels():
        return None
    try:
        for task, shape in probe_tasks(name):
            infer_footprint(task, shape)
    except SymbolicRefusal as exc:
        return str(exc)
    return None


def probe_tasks(
    name: str,
    *,
    args: tuple = (None, 2, 3),
) -> list[tuple[TileTask, tuple[int, int]]]:
    """Representative (task, framed shape) probes for kernel *name*.

    Two grids (an even 12x12 and a ragged 10x11 whose last tiles clamp),
    three tile positions each (corner, edge, interior), crossed with the
    fused-step arguments — enough geometry to exercise every clamping
    branch of the stock kernels.
    """
    probes: list[tuple[TileTask, tuple[int, int]]] = []
    for height, width, tile_size in ((12, 12, 4), (10, 11, 4)):
        grid = TileGrid(height, width, tile_size)
        tiles = list(grid)
        picks = {tiles[0], tiles[1], tiles[len(tiles) // 2], tiles[-1]}
        shape = (height + 2, width + 2)
        for tile in sorted(picks, key=lambda t: t.index):
            for arg in args:
                probes.append((TileTask(name, 0, 1, tile, arg=arg), shape))
    return probes


# -- verification of hand declarations ----------------------------------------------


@dataclass
class DeclarationCheck:
    """Outcome of cross-checking one hand declaration against inference."""

    kernel: str
    status: str  # "exact" | "over-declared" | "UNDER-DECLARED" | "unverified" | "none"
    detail: str = ""
    probes: int = 0

    @property
    def ok(self) -> bool:
        """Sound: everything the code may touch is declared."""
        return self.status in ("exact", "over-declared")


def verify_declaration(name: str) -> DeclarationCheck:
    """Cross-check kernel *name*'s declared footprint against inference.

    Sound declarations are supersets of the inferred may-sets on every
    probe geometry; equality on all probes is reported as ``exact``,
    strict superset as ``over-declared`` (a warning — conservative but
    sound), any inferred-but-undeclared cell as ``UNDER-DECLARED`` (an
    error — the static race checker would miss real conflicts).
    """
    probes = probe_tasks(name)
    sample = probes[0][0]
    if declared_footprint(sample, probes[0][1]) is None:
        return DeclarationCheck(name, "none", "no declared footprint", len(probes))
    exact = True
    for task, shape in probes:
        declared = declared_footprint(task, shape)
        try:
            inferred = infer_footprint(task, shape)
        except SymbolicRefusal as exc:
            return DeclarationCheck(name, "unverified", str(exc), len(probes))
        under_r = inferred.reads - declared.reads
        under_w = inferred.writes - declared.writes
        if under_r or under_w:
            cells = sorted(under_r | under_w)[:4]
            return DeclarationCheck(
                name,
                "UNDER-DECLARED",
                f"inferred cells missing from the declaration (tile {task.tile.index}, "
                f"arg={task.arg}): {cells}{'...' if len(under_r | under_w) > 4 else ''}",
                len(probes),
            )
        if declared.reads != inferred.reads or declared.writes != inferred.writes:
            exact = False
    if exact:
        return DeclarationCheck(name, "exact", "inferred == declared on every probe",
                                len(probes))
    return DeclarationCheck(
        name, "over-declared",
        "declaration is a strict superset of the inferred footprint (sound)",
        len(probes),
    )


def verify_declarations(names: list[str] | None = None) -> list[DeclarationCheck]:
    """Verify every declared kernel in the registry (or just *names*)."""
    if names is None:
        names = sorted(registered_tile_kernels())
    checks = []
    for name in names:
        check = verify_declaration(name)
        if check.status != "none":
            checks.append(check)
    return checks


# -- per-kernel verdicts ------------------------------------------------------------


@dataclass
class KernelVerdict:
    """Static verdict for one registered tile kernel."""

    kernel: str
    source: str        # "declared" | "inferred" | "refused"
    declaration: str   # DeclarationCheck.status, or "none"
    race: str          # "race-free" | "racy" | "refused"
    expected: str      # "racy-by-design" | "race-free"
    halo_radius: int | None = None
    reason: str = ""

    @property
    def ok(self) -> bool:
        """No under-declaration, and a racy schedule only when tagged so."""
        if self.declaration == "UNDER-DECLARED":
            return False
        if self.race == "racy" and self.expected != "racy-by-design":
            return False
        return True

    def verdict_word(self) -> str:
        if self.race == "refused":
            return "refused-with-reason"
        if self.race == "racy":
            return "racy-by-design" if self.expected == "racy-by-design" else "RACY"
        return "race-free"


def _footprint_source(name: str) -> tuple[Callable, str]:
    """(fp(task, shape), provenance) for *name*: declared model or inference."""
    probes = probe_tasks(name)
    if declared_footprint(probes[0][0], probes[0][1]) is not None:
        return declared_footprint, "declared"
    return infer_footprint, "inferred"


def certify_kernel(name: str) -> KernelVerdict:
    """Certify one registered kernel: provenance, race shape, halo radius.

    The race shape is judged on edge-adjacent tile pairs of a
    representative double-buffered batch (``src=0, dst=1``; in-place
    kernels reveal themselves by accessing plane 0 regardless): pairwise
    independent footprints mean any schedule of distinct tiles is
    race-free, an overlap means concurrent adjacent tiles conflict — which
    must match the kernel's ``racy-by-design`` registration tag.
    """
    from repro.analysis.halo import footprint_halo_radius

    expected = "racy-by-design" if "racy-by-design" in tile_kernel_tags(name) \
        else "race-free"
    fp_fn, source = _footprint_source(name)
    check = verify_declaration(name) if source == "declared" else \
        DeclarationCheck(name, "none", "certified purely by symbolic inference")

    height = width = 12
    tile_size = 4
    shape = (height + 2, width + 2)
    grid = TileGrid(height, width, tile_size)
    tiles = {(t.ty, t.tx): t for t in grid}
    pairs = [
        (tiles[(1, 1)], tiles[(1, 2)]),  # east neighbours
        (tiles[(1, 1)], tiles[(2, 1)]),  # south neighbours
        (tiles[(0, 0)], tiles[(0, 1)]),  # clamped corner pair
    ]
    halo_radius: int | None = None
    racy = False
    try:
        for arg in (None, 3):
            for a, b in pairs:
                fa = fp_fn(TileTask(name, 0, 1, a, arg=arg), shape)
                fb = fp_fn(TileTask(name, 0, 1, b, arg=arg), shape)
                if not fa.independent_of(fb):
                    racy = True
            centre = tiles[(1, 1)]
            fp = fp_fn(TileTask(name, 0, 1, centre, arg=arg), shape)
            radius = footprint_halo_radius(fp, centre)
            if arg is None:
                halo_radius = radius
    except SymbolicRefusal as exc:
        return KernelVerdict(name, "refused", check.status, "refused", expected,
                             None, str(exc))
    verdict = KernelVerdict(
        name, source, check.status, "racy" if racy else "race-free", expected,
        halo_radius, check.detail if not check.ok else "",
    )
    return verdict


def certify_kernels(names: list[str] | None = None) -> list[KernelVerdict]:
    """Certify every kernel in the registry (see :func:`certify_kernel`)."""
    if names is None:
        names = sorted(registered_tile_kernels())
    return [certify_kernel(name) for name in names]


def kernel_verdict_table(verdicts: list[KernelVerdict]) -> str:
    """Render kernel verdicts as an aligned text table (CLI output)."""
    rows = [("kernel", "source", "declaration", "verdict", "halo", "status")]
    for v in verdicts:
        rows.append((
            v.kernel, v.source, v.declaration, v.verdict_word(),
            str(v.halo_radius) if v.halo_radius is not None else "-",
            "ok" if v.ok else "FAIL",
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def verdicts_to_json(
    verdicts: list[KernelVerdict], checks: list[DeclarationCheck]
) -> dict:
    """JSON-serialisable report for the CI artifact."""
    return {
        "kernels": [
            {
                "kernel": v.kernel,
                "source": v.source,
                "declaration": v.declaration,
                "verdict": v.verdict_word(),
                "expected": v.expected,
                "halo_radius": v.halo_radius,
                "ok": v.ok,
                "reason": v.reason,
            }
            for v in verdicts
        ],
        "declarations": [
            {
                "kernel": c.kernel,
                "status": c.status,
                "detail": c.detail,
                "probes": c.probes,
                "ok": c.ok,
            }
            for c in checks
        ],
        "ok": all(v.ok for v in verdicts) and all(c.ok for c in checks),
    }
