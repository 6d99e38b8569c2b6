"""The BC interpreter: the oracle every compiled and BOLTed binary matches.

A program's ``out`` stream must be identical between this interpreter,
the -O0/-O2 compiled binary, and every BOLTed variant.  It runs each
function with the same 64-bit wrapping semantics the compiled code has.

Each function body is compiled on its first call, once per
:class:`Interpreter`, into nested closures: statement kind, expression
kind and operator are resolved at compile time, ``switch`` becomes a
first-match dict, and ``break``/``continue``/``return`` travel as
statement results, not exceptions.  Scopes stay a list of dicts, one
per block, so a ``var`` in an unbraced ``if`` declares into the
enclosing scope only when that branch runs.

``steps`` counts one per statement and one per expression node
evaluated, exactly as the tree-walker in
:mod:`tests.oracles.reference_interp` (the oracle the closures are
tested against) does.  The closures charge the count in *segments*: a segment
is a run of nodes that evaluate with nothing observable between them,
and it is charged, and checked against ``max_steps``, before its first
node runs.  A segment ends wherever something can happen that depends
on the count so far: a call (its callee runs), an operation that can
fail (division, a call through a value, a read of a variable no scope
may hold), and the dynamic right side of ``&&``/``||``.  So ``steps``
is exact at every call, throw and error, and the budget error is raised
exactly when the tree-walker raises it.
"""

import weakref

from repro.ir.passes import BINARY_OPS
from repro.lang import astnodes as ast
from repro.lang.sema import check_module

_MASK = (1 << 64) - 1


def _wrap(value):
    value &= _MASK
    return value - (1 << 64) if value >= 1 << 63 else value


class BCError(Exception):
    """Runtime error (division by zero, uncaught exception, ...)."""


class _Thrown(Exception):
    def __init__(self, value):
        self.value = value


# A statement closure returns None to fall through, one of these two
# signals, or a 1-tuple holding the function's return value.
_BREAK = object()
_CONTINUE = object()
_RETURN_ZERO = (0,)


class _FuncValue:
    """A function pointer (``&f``); a new one per evaluation."""

    __slots__ = ("function",)

    def __init__(self, function):
        self.function = function


class _Function:
    """One BC function; ``body`` is compiled on its first call."""

    __slots__ = ("interp", "module", "decl", "body")

    def __init__(self, interp, module, decl):
        # Weak: the closures reach this object and must not keep the
        # Interpreter alive.
        self.interp = weakref.ref(interp)
        self.module = module
        self.decl = decl
        self.body = None

    def compile(self):
        self.body = _Compiler(self.interp(), self).function_body()
        return self.body


def _invoke(function, args):
    """Call ``function`` with an evaluated argument list."""
    decl = function.decl
    if len(args) != len(decl.params):
        raise BCError(f"arity mismatch calling {decl.name}")
    body = function.body or function.compile()
    result = body([dict(zip(decl.params, args)), {}])
    return 0 if result is None else result[0]


class _Counter:
    """The step count the compiled closures add to.  It lives apart
    from the Interpreter so that the closures do not reference it."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


def _exhausted(counter, limit):
    # The tree-walker counts one node at a time, so it stops at exactly
    # one past the budget.
    counter.count = limit + 1
    return BCError("step budget exceeded")


def _release(functions):
    """Drop every compiled body.  A recursive function's closures form
    a reference cycle; breaking it when the Interpreter goes frees them
    at once, not at the next garbage collection.  ``run`` also drops
    them when ``max_steps`` changes, since the closures hold it."""
    for function in functions.values():
        function.body = None


class Interpreter:
    """Executes a multi-module BC program."""

    def __init__(self, modules, max_steps=10_000_000):
        """``modules``: list of checked ast.Module."""
        self.max_steps = max_steps
        self.output = []
        self.module_info = {}
        self.globals = {}      # (module, name) -> value
        self.arrays = {}       # (module, name) -> list
        self.consts = {}       # (module, name) -> bool
        self.functions = {}    # global name -> (module, FuncDecl)
        self.static_functions = {}  # (module, name) -> FuncDecl
        self._unbraced = {}    # module -> names its unbraced vars declare
        self._counter = _Counter()

        for module in modules:
            info = check_module(module)
            self.module_info[module.name] = (module, info)
            for decl in module.globals:
                key = (module.name, decl.name)
                if isinstance(decl, ast.GlobalVar):
                    self.globals[key] = _wrap(decl.init)
                else:
                    values = [_wrap(v) for v in decl.init]
                    values += [0] * (decl.size - len(values))
                    self.arrays[key] = values
                self.consts[key] = decl.const
            for func in module.functions:
                if func.static:
                    self.static_functions[(module.name, func.name)] = func
                else:
                    if func.name in self.functions:
                        raise BCError(f"duplicate global function {func.name}")
                    self.functions[func.name] = (module.name, func)
        self._functions = {func: _Function(self, module.name, func)
                           for module in modules
                           for func in module.functions}
        self._limit = max_steps  # the budget the compiled closures hold
        weakref.finalize(self, _release, self._functions)

    @property
    def steps(self):
        """Statements and expression nodes evaluated, over every run."""
        return self._counter.count

    def set_array(self, module, name, values):
        """Poke an input array (mirrors Machine.poke_array)."""
        arr = self.arrays[(module, name)]
        if len(values) > len(arr):
            raise ValueError(f"input for array {module}::{name} has "
                             f"{len(values)} values but the array holds "
                             f"{len(arr)}")
        for i, v in enumerate(values):
            arr[i] = _wrap(v)

    def run(self, entry="main", args=()):
        _, func = self.functions[entry]
        if self._limit != self.max_steps:
            self._limit = self.max_steps
            _release(self._functions)
        try:
            return _invoke(self._functions[func], list(args))
        except _Thrown as exc:
            raise BCError(f"uncaught exception (value={exc.value})") from None

    # -- compilation --------------------------------------------------------

    def _resolve(self, module, name):
        """The function a direct call or ``&name`` names, or None."""
        if (module, name) in self.static_functions:
            return self._functions[self.static_functions[(module, name)]]
        if name in self.functions:
            return self._functions[self.functions[name][1]]
        return None

    def _unbraced_vars(self, module):
        """Names an unbraced ``var`` in ``module`` declares.  Only these
        locals can be missing from every scope when read, and only
        assigning one while it is missing creates a global."""
        names = self._unbraced.get(module)
        if names is None:
            names = set()
            for func in self.module_info[module][0].functions:
                _scan(func.body, 0, {}, names)
            self._unbraced[module] = names
        return names


# -- the closure compiler ------------------------------------------------------


def _scan(stmt, depth, decls, unbraced, conditional=False):
    """Collect the declarations under ``stmt``, which runs with
    ``env[depth]`` as its innermost scope: ``decls`` maps each name a
    ``var`` or ``catch`` declares to the scope indices it is declared
    in, and ``unbraced`` gets the names of a ``var`` that runs only on
    some paths without a block of its own."""
    kind = type(stmt)
    if kind is ast.VarDecl:
        decls.setdefault(stmt.name, set()).add(depth)
        if conditional:
            unbraced.add(stmt.name)
    elif kind is ast.Block:
        for child in stmt.stmts:
            _scan(child, depth + 1, decls, unbraced)
    elif kind is ast.If:
        _scan(stmt.then, depth, decls, unbraced, True)
        if stmt.otherwise is not None:
            _scan(stmt.otherwise, depth, decls, unbraced, True)
    elif kind is ast.While:
        _scan(stmt.body, depth, decls, unbraced, True)
    elif kind is ast.For:
        if stmt.init is not None:
            _scan(stmt.init, depth + 1, decls, unbraced)
        _scan(stmt.body, depth + 1, decls, unbraced, True)
    elif kind is ast.Switch:
        for _, body in stmt.cases:
            _scan(body, depth, decls, unbraced, True)
        if stmt.default is not None:
            _scan(stmt.default, depth, decls, unbraced, True)
    elif kind is ast.Try:
        _scan(stmt.body, depth, decls, unbraced)
        decls.setdefault(stmt.catch_var, set()).add(depth + 1)
        _scan(stmt.handler, depth + 1, decls, unbraced)


class _Compiler:
    """Compiles one function body into closures over ``env``, the list
    of scope dicts.

    ``stmt(node, carry)`` returns ``run(env)``; ``carry`` counts nodes an
    enclosing statement leaves for this one's first charge.
    ``expr(node, tail)`` returns ``(run(env), head)``: ``tail`` is the
    number of nodes evaluated after the expression up to the end of its
    segment, and ``head`` the number from its start up to the end of
    its first segment.  Operands are compiled right to left so that each
    knows its tail; a node that ends a segment charges its own tail.

    Names resolve as far as the declarations allow: a name no ``var``
    or ``catch`` declares is a parameter or a global, and one declared
    at a single scope depth, not by an unbraced ``var``, in a function
    with no parameter or global of that name, lives in ``env[depth]``.
    Other names walk the scope chain.
    """

    def __init__(self, interp, function):
        self.interp = interp
        self.counter = interp._counter
        self.limit = interp._limit
        self.module = module = function.module
        self.decl = function.decl
        self.params = set(self.decl.params)
        decls, unbraced = {}, set()
        _scan(self.decl.body, 0, decls, unbraced)
        global_vars = set(interp.module_info[module][1].global_vars)
        self.locals = set(decls)
        self.depth = {name: next(iter(depths))
                      for name, depths in decls.items()
                      if len(depths) == 1 and name not in unbraced
                      and name not in self.params and name not in global_vars}
        self.maybe_missing = unbraced - self.params - global_vars
        self.holders = (self.locals | self.params | global_vars
                        | interp._unbraced_vars(module))

    # -- charging ---------------------------------------------------------

    def before(self, k, run):
        """``run`` preceded by charging ``k`` steps."""
        if not k:
            return run
        counter, limit = self.counter, self.limit

        def charged(env):
            steps = counter.count + k
            counter.count = steps
            if steps > limit:
                raise _exhausted(counter, limit)
            return run(env)
        return charged

    def after(self, run, k):
        """``run`` followed by charging ``k`` steps."""
        if not k:
            return run
        counter, limit = self.counter, self.limit

        def charged(env):
            value = run(env)
            steps = counter.count + k
            counter.count = steps
            if steps > limit:
                raise _exhausted(counter, limit)
            return value
        return charged

    # -- statements -----------------------------------------------------------

    def function_body(self):
        """The body runs in ``[params, {}]``: the call's scope and the
        body block's, which the tree-walker pushes without counting."""
        runs = self.stmts(self.decl.body.stmts, 0)

        def run(env):
            for stmt in runs:
                signal = stmt(env)
                if signal is not None:
                    return signal
            return None
        return run

    def stmts(self, nodes, carry):
        return tuple(self.stmt(node, carry if i == 0 else 0)
                     for i, node in enumerate(nodes))

    def stmt(self, node, carry=0):
        return _STATEMENTS[type(node)](self, node, carry)

    def s_Block(self, node, carry):
        runs = self.stmts(node.stmts, carry + 1)
        if not runs:
            return self.before(carry + 1, lambda env: None)

        def run(env):
            env.append({})
            for stmt in runs:
                signal = stmt(env)
                if signal is not None:
                    env.pop()
                    return signal
            env.pop()
            return None
        return run

    def s_VarDecl(self, node, carry):
        name, counter, limit = node.name, self.counter, self.limit
        if node.init is None:
            value, head = (lambda env: 0), 0
        else:
            value, head = self.expr(node.init, 0)
        k = carry + 1 + head

        def run(env):
            steps = counter.count + k
            counter.count = steps
            if steps > limit:
                raise _exhausted(counter, limit)
            env[-1][name] = value(env)
        return run

    def s_Assign(self, node, carry):
        counter, limit, target = self.counter, self.limit, node.target
        if isinstance(target, ast.Index):
            index, index_head = self.expr(target.index, 0)
            value, head = self.expr(node.value, index_head)
            k = carry + 1 + head
            arr = self.interp.arrays[(self.module, target.name)]
            mask = len(arr) - 1

            def run(env):
                steps = counter.count + k
                counter.count = steps
                if steps > limit:
                    raise _exhausted(counter, limit)
                v = value(env)
                arr[index(env) & mask] = v
            return run
        value, head = self.expr(node.value, 0)
        k = carry + 1 + head
        name = target.name
        index = self.scope_index(name)
        if index is not None:
            def run(env):
                steps = counter.count + k
                counter.count = steps
                if steps > limit:
                    raise _exhausted(counter, limit)
                env[index][name] = value(env)
            return run
        globals_, key = self.interp.globals, (self.module, name)
        if name not in self.locals:
            def run(env):
                steps = counter.count + k
                counter.count = steps
                if steps > limit:
                    raise _exhausted(counter, limit)
                globals_[key] = value(env)
            return run

        def run(env):
            steps = counter.count + k
            counter.count = steps
            if steps > limit:
                raise _exhausted(counter, limit)
            v = value(env)
            for scope in reversed(env):
                if name in scope:
                    scope[name] = v
                    return
            globals_[key] = v
        return run

    def s_If(self, node, carry):
        counter, limit = self.counter, self.limit
        cond, head = self.expr(node.cond, 0)
        k = carry + 1 + head
        then = self.stmt(node.then)
        if node.otherwise is None:
            def run(env):
                steps = counter.count + k
                counter.count = steps
                if steps > limit:
                    raise _exhausted(counter, limit)
                if cond(env):
                    return then(env)
                return None
            return run
        otherwise = self.stmt(node.otherwise)

        def run(env):
            steps = counter.count + k
            counter.count = steps
            if steps > limit:
                raise _exhausted(counter, limit)
            if cond(env):
                return then(env)
            return otherwise(env)
        return run

    def s_While(self, node, carry):
        counter, limit = self.counter, self.limit
        cond, head = self.expr(node.cond, 0)
        first = carry + 1 + head
        body = self.stmt(node.body)

        def run(env):
            steps = counter.count + first
            while True:
                counter.count = steps
                if steps > limit:
                    raise _exhausted(counter, limit)
                if not cond(env):
                    return None
                signal = body(env)
                if signal is not None and signal is not _CONTINUE:
                    return None if signal is _BREAK else signal
                steps = counter.count + head
        return run

    def s_For(self, node, carry):
        counter, limit = self.counter, self.limit
        # The init, if any, runs first and takes the For's own count.
        if node.init is not None:
            init = self.stmt(node.init, carry + 1)
        else:
            init = self.before(carry + 1, lambda env: None)
        if node.cond is None:
            cond, head = (lambda env: 1), 0
        else:
            cond, head = self.expr(node.cond, 0)
        body = self.stmt(node.body)
        step = (lambda env: None) if node.step is None else self.stmt(node.step)

        def run(env):
            env.append({})
            init(env)
            while True:
                steps = counter.count + head
                counter.count = steps
                if steps > limit:
                    raise _exhausted(counter, limit)
                if not cond(env):
                    break
                signal = body(env)
                if signal is not None and signal is not _CONTINUE:
                    if signal is _BREAK:
                        break
                    env.pop()
                    return signal
                step(env)
            env.pop()
            return None
        return run

    def s_Switch(self, node, carry):
        counter, limit = self.counter, self.limit
        value, head = self.expr(node.value, 0)
        k = carry + 1 + head
        cases = {}
        for case_value, body in node.cases:
            if case_value not in cases:
                cases[case_value] = self.stmt(body)
        default = None if node.default is None else self.stmt(node.default)

        def run(env):
            steps = counter.count + k
            counter.count = steps
            if steps > limit:
                raise _exhausted(counter, limit)
            body = cases.get(value(env), default)
            if body is not None:
                return body(env)
            return None
        return run

    def s_Return(self, node, carry):
        if node.value is None:
            return self.before(carry + 1, lambda env: _RETURN_ZERO)
        counter, limit = self.counter, self.limit
        value, head = self.expr(node.value, 0)
        k = carry + 1 + head

        def run(env):
            steps = counter.count + k
            counter.count = steps
            if steps > limit:
                raise _exhausted(counter, limit)
            return (value(env),)
        return run

    def s_Out(self, node, carry):
        output = self.interp.output
        value, head = self.expr(node.value, 0)
        return self.before(carry + 1 + head,
                           lambda env: output.append(value(env)))

    def s_ExprStmt(self, node, carry):
        counter, limit = self.counter, self.limit
        expr, head = self.expr(node.expr, 0)
        k = carry + 1 + head

        def run(env):
            steps = counter.count + k
            counter.count = steps
            if steps > limit:
                raise _exhausted(counter, limit)
            expr(env)
        return run

    def s_Break(self, node, carry):
        return self.before(carry + 1, lambda env: _BREAK)

    def s_Continue(self, node, carry):
        return self.before(carry + 1, lambda env: _CONTINUE)

    def s_Throw(self, node, carry):
        value, head = self.expr(node.value, 0)

        def run(env):
            raise _Thrown(value(env))
        return self.before(carry + 1 + head, run)

    def s_Try(self, node, carry):
        body = self.stmt(node.body, carry + 1)
        handler = self.stmt(node.handler)
        catch_var = node.catch_var

        def run(env):
            depth = len(env)
            try:
                return body(env)
            except _Thrown as exc:
                # The blocks the throw left did not pop their scopes.
                del env[depth:]
                env.append({catch_var: exc.value})
                signal = handler(env)
                env.pop()
                return signal
        return run

    # -- expressions ------------------------------------------------------------

    def expr(self, node, tail):
        return _EXPRESSIONS[type(node)](self, node, tail)

    def scope_index(self, name):
        """The index of the scope always holding ``name``, or None."""
        if name in self.params and name not in self.locals:
            return 0
        return self.depth.get(name)

    def e_Num(self, node, tail):
        value = _wrap(node.value)
        return (lambda env: value), 1 + tail

    def e_Name(self, node, tail):
        name = node.name
        index = self.scope_index(name)
        if index is not None:
            return (lambda env: env[index][name]), 1 + tail
        globals_, key = self.interp.globals, (self.module, name)
        if name not in self.locals:
            return (lambda env: globals_[key]), 1 + tail

        def run(env):
            for scope in reversed(env):
                if name in scope:
                    return scope[name]
            return globals_[key]
        if name in self.maybe_missing:
            # The global read may fail: end the segment here.
            return self.after(run, tail), 1
        return run, 1 + tail

    def e_Index(self, node, tail):
        index, head = self.expr(node.index, tail)
        arr = self.interp.arrays[(self.module, node.name)]
        mask = len(arr) - 1
        return (lambda env: arr[index(env) & mask]), 1 + head

    def e_FuncRef(self, node, tail):
        function = self.interp._resolve(self.module, node.name)
        if function is None:
            return self.undefined(node.name), 1
        return (lambda env: _FuncValue(function)), 1 + tail

    def e_Unary(self, node, tail):
        operand, head = self.expr(node.operand, tail)
        if node.op == "-":
            return (lambda env: _wrap(-operand(env))), 1 + head
        return (lambda env: 0 if operand(env) else 1), 1 + head

    def e_Binary(self, node, tail):
        op = node.op
        if op in ("&&", "||"):
            left, head = self.expr(node.left, 0)
            right, right_head = self.expr(node.right, 0)
            right = self.before(right_head, right)
            if op == "&&":
                run = lambda env: 1 if left(env) and right(env) else 0
            else:
                run = lambda env: 1 if left(env) or right(env) else 0
            return self.after(run, tail), 1 + head
        fn = BINARY_OPS[op]
        if op in ("/", "%") and not (isinstance(node.right, ast.Num)
                                     and _wrap(node.right.value) != 0):
            # Division by a non-constant may fail: end the segment here.
            right, right_head = self.expr(node.right, 0)
            left, head = self.expr(node.left, right_head)

            def run(env):
                a = left(env)
                b = right(env)
                if b == 0:
                    raise BCError("division by zero")
                return fn(a, b)
            return self.after(run, tail), 1 + head
        right, right_head = self.expr(node.right, tail)
        left, head = self.expr(node.left, right_head)
        return (lambda env: fn(left(env), right(env))), 1 + head

    def e_Call(self, node, tail):
        runs, args_head = self.arguments(node.args)

        def args(env):
            return [run(env) for run in runs]
        if node.indirect:
            callee, head = self.expr(node.callee, 0)
            args = self.before(args_head, args)

            def run(env):
                target = callee(env)
                if not isinstance(target, _FuncValue):
                    raise BCError("indirect call through non-function value")
                return _invoke(target.function, args(env))
            return self.after(run, tail), 1 + head
        name = node.callee
        function = self.interp._resolve(self.module, name)
        if name in self.holders:
            return self.after(self.call_through_name(name, function,
                                                     args, args_head),
                              tail), 1
        if function is None:
            return self.undefined(name), 1
        if len(node.args) != len(function.decl.params):
            return self.after(lambda env: _invoke(function, args(env)),
                              tail), 1 + args_head
        frame = _frame(function.decl.params, runs)

        def run(env):
            body = function.body or function.compile()
            result = body([frame(env), {}])
            return 0 if result is None else result[0]
        return self.after(run, tail), 1 + args_head

    def call_through_name(self, name, function, args, args_head):
        """A direct call whose name a variable may hold: call the
        function pointer in it if there is one."""
        globals_, key = self.interp.globals, (self.module, name)
        args = self.before(args_head, args)

        def run(env):
            for scope in reversed(env):
                if name in scope:
                    holder = scope[name]
                    break
            else:
                holder = globals_.get(key)
            if holder is not None:
                if not isinstance(holder, _FuncValue):
                    raise BCError("call through non-function value")
                return _invoke(holder.function, args(env))
            if function is None:
                raise BCError(f"undefined function {name}")
            return _invoke(function, args(env))
        return run

    @staticmethod
    def undefined(name):
        def run(env):
            raise BCError(f"undefined function {name}")
        return run

    def arguments(self, nodes):
        """``(runs, head)`` for a call's arguments; no tail: the call
        ends the segment."""
        runs, head = [], 0
        for node in reversed(nodes):
            run, head = self.expr(node, head)
            runs.append(run)
        runs.reverse()
        return runs, head


# Dispatch on the node's type, not on a method name built per node: the
# interpreter's method cache keeps every name string it is asked for,
# and those strings would pin the memory the closures are freed from.
_STATEMENTS = {getattr(ast, name[2:]): method
               for name, method in vars(_Compiler).items()
               if name.startswith("s_")}
_EXPRESSIONS = {getattr(ast, name[2:]): method
                for name, method in vars(_Compiler).items()
                if name.startswith("e_")}


def _frame(params, runs):
    """``frame(env)``: the callee's parameter scope, its arguments
    evaluated left to right (unrolled for the common arities: this is
    every direct call's path)."""
    if not runs:
        return lambda env: {}
    if len(runs) == 1:
        p, = params
        a, = runs
        return lambda env: {p: a(env)}
    if len(runs) == 2:
        p, q = params
        a, b = runs
        return lambda env: {p: a(env), q: b(env)}
    return lambda env: dict(zip(params, [run(env) for run in runs]))
