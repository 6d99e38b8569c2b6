"""The reference BC interpreter: the AST tree-walker, preserved verbatim.

This is the interpreter :mod:`repro.lang.interp` had before it compiled
function bodies to closures.  It is kept as the equivalence oracle for
the closure compiler -- the same pattern as
:mod:`repro.uarch._reference_cpu` -- and only tests import it: a
program must give the same ``steps``, ``output``, return value and
error under both.  It raises :class:`repro.lang.interp.BCError`, so the error types
compare equal.
"""

from repro.lang import astnodes as ast
from repro.lang.interp import BCError, _wrap
from repro.lang.sema import check_module


class _Thrown(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _FuncValue:
    __slots__ = ("module", "decl")

    def __init__(self, module, decl):
        self.module = module
        self.decl = decl


class ReferenceInterpreter:
    """Executes a multi-module BC program."""

    def __init__(self, modules, max_steps=10_000_000):
        """``modules``: list of checked ast.Module."""
        self.max_steps = max_steps
        self.steps = 0
        self.output = []
        self.module_info = {}
        self.globals = {}      # (module, name) -> value
        self.arrays = {}       # (module, name) -> list
        self.consts = {}       # (module, name) -> bool
        self.functions = {}    # global name -> (module, FuncDecl)
        self.static_functions = {}  # (module, name) -> FuncDecl

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

    def set_array(self, module, name, values):
        """Poke an input array (mirrors Machine.poke_array)."""
        arr = self.arrays[(module, name)]
        for i, v in enumerate(values):
            arr[i] = _wrap(v)

    def run(self, entry="main", args=()):
        module, func = self.functions[entry]
        try:
            return self.call(module, func, list(args))
        except _Thrown as exc:
            raise BCError(f"uncaught exception (value={exc.value})") from None

    # -- function calls -----------------------------------------------------

    def resolve(self, module, name):
        if (module, name) in self.static_functions:
            return (module, self.static_functions[(module, name)])
        if name in self.functions:
            return self.functions[name]
        raise BCError(f"undefined function {name}")

    def call(self, module, func, args):
        if len(args) != len(func.params):
            raise BCError(f"arity mismatch calling {func.name}")
        env = [dict(zip(func.params, args))]
        try:
            self.exec_block(module, func.body, env)
        except _Return as ret:
            return ret.value
        return 0

    # -- statements -------------------------------------------------------------

    def exec_stmt(self, module, node, env):
        self.steps += 1
        if self.steps > self.max_steps:
            raise BCError("step budget exceeded")
        kind = type(node).__name__
        if kind == "Block":
            self.exec_block(module, node, env)
        elif kind == "VarDecl":
            value = self.eval(module, node.init, env) if node.init else 0
            env[-1][node.name] = value
        elif kind == "Assign":
            value = self.eval(module, node.value, env)
            target = node.target
            if isinstance(target, ast.Name):
                for scope in reversed(env):
                    if target.name in scope:
                        scope[target.name] = value
                        return
                self.globals[(module, target.name)] = value
            else:
                index = self.eval(module, target.index, env)
                arr = self.arrays[(module, target.name)]
                arr[index & (len(arr) - 1)] = value
        elif kind == "If":
            if self.eval(module, node.cond, env):
                self.exec_stmt(module, node.then, env)
            elif node.otherwise is not None:
                self.exec_stmt(module, node.otherwise, env)
        elif kind == "While":
            while self.eval(module, node.cond, env):
                try:
                    self.exec_stmt(module, node.body, env)
                except _Break:
                    break
                except _Continue:
                    continue
        elif kind == "For":
            env.append({})
            try:
                if node.init is not None:
                    self.exec_stmt(module, node.init, env)
                while (node.cond is None
                       or self.eval(module, node.cond, env)):
                    try:
                        self.exec_stmt(module, node.body, env)
                    except _Break:
                        break
                    except _Continue:
                        pass
                    if node.step is not None:
                        self.exec_stmt(module, node.step, env)
            finally:
                env.pop()
        elif kind == "Switch":
            value = self.eval(module, node.value, env)
            for case_value, body in node.cases:
                if value == case_value:
                    self.exec_stmt(module, body, env)
                    return
            if node.default is not None:
                self.exec_stmt(module, node.default, env)
        elif kind == "Return":
            value = self.eval(module, node.value, env) if node.value else 0
            raise _Return(value)
        elif kind == "Out":
            self.output.append(self.eval(module, node.value, env))
        elif kind == "ExprStmt":
            self.eval(module, node.expr, env)
        elif kind == "Break":
            raise _Break()
        elif kind == "Continue":
            raise _Continue()
        elif kind == "Throw":
            raise _Thrown(self.eval(module, node.value, env))
        elif kind == "Try":
            try:
                self.exec_stmt(module, node.body, env)
            except _Thrown as exc:
                env.append({node.catch_var: exc.value})
                try:
                    self.exec_stmt(module, node.handler, env)
                finally:
                    env.pop()
        else:  # pragma: no cover
            raise BCError(f"unknown statement {kind}")

    def exec_block(self, module, block, env):
        env.append({})
        try:
            for stmt in block.stmts:
                self.exec_stmt(module, stmt, env)
        finally:
            env.pop()

    # -- expressions ----------------------------------------------------------------

    def eval(self, module, node, env):
        self.steps += 1
        if self.steps > self.max_steps:
            raise BCError("step budget exceeded")
        if isinstance(node, ast.Num):
            return _wrap(node.value)
        if isinstance(node, ast.Name):
            for scope in reversed(env):
                if node.name in scope:
                    return scope[node.name]
            return self.globals[(module, node.name)]
        if isinstance(node, ast.Index):
            index = self.eval(module, node.index, env)
            arr = self.arrays[(module, node.name)]
            return arr[index & (len(arr) - 1)]
        if isinstance(node, ast.FuncRef):
            target_module, func = self.resolve(module, node.name)
            return _FuncValue(target_module, func)
        if isinstance(node, ast.Call):
            if node.indirect:
                target = self.eval(module, node.callee, env)
                if not isinstance(target, _FuncValue):
                    raise BCError("indirect call through non-function value")
                args = [self.eval(module, a, env) for a in node.args]
                return self.call(target.module, target.decl, args)
            # A direct name may still be a variable holding a fptr.
            holder = None
            for scope in reversed(env):
                if node.callee in scope:
                    holder = scope[node.callee]
                    break
            if holder is None and (module, node.callee) in self.globals:
                holder = self.globals[(module, node.callee)]
            if holder is not None:
                if not isinstance(holder, _FuncValue):
                    raise BCError("call through non-function value")
                args = [self.eval(module, a, env) for a in node.args]
                return self.call(holder.module, holder.decl, args)
            target_module, func = self.resolve(module, node.callee)
            args = [self.eval(module, a, env) for a in node.args]
            return self.call(target_module, func, args)
        if isinstance(node, ast.Unary):
            value = self.eval(module, node.operand, env)
            if node.op == "-":
                return _wrap(-value)
            return 0 if value else 1
        if isinstance(node, ast.Binary):
            if node.op == "&&":
                return 1 if (self.eval(module, node.left, env)
                             and self.eval(module, node.right, env)) else 0
            if node.op == "||":
                return 1 if (self.eval(module, node.left, env)
                             or self.eval(module, node.right, env)) else 0
            a = self.eval(module, node.left, env)
            b = self.eval(module, node.right, env)
            return self.binop(node.op, a, b)
        raise BCError(f"unknown expression {type(node).__name__}")

    @staticmethod
    def binop(op, a, b):
        from repro.ir.passes import eval_binop

        result = eval_binop(op, a, b)
        if result is None:
            raise BCError("division by zero")
        return result
