"""AST -> IR lowering."""

from repro.ir.ir import IRInst, IRFunction, IRModule, Imm, CMP_OPS
from repro.ir.passes import remove_unreachable_blocks
from repro.lang import astnodes as ast
from repro.lang.sema import check_module


class BuildError(Exception):
    pass


_CMP_SWAP = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class _FuncBuilder:
    def __init__(self, module_ir, info, func_ast):
        self.module = module_ir
        self.info = info
        self.func = IRFunction(
            func_ast.name,
            params=[],
            static=func_ast.static,
            module=module_ir.name,
            loc=func_ast.loc,
        )
        self.func.param_names = list(func_ast.params)
        self.scopes = [{}]
        self.current = self.func.new_block("entry")
        self.loop_stack = []       # (continue_target, break_target)
        self.lp_stack = []         # landing-pad block names
        for param in func_ast.params:
            vreg = self.func.new_vreg()
            self.func.params.append(vreg)
            self.scopes[0][param] = vreg

    # -- plumbing -----------------------------------------------------------

    def emit(self, inst):
        if self.current.terminator is not None:
            raise BuildError(f"emitting into terminated block {self.current.name}")
        self.current.insts.append(inst)
        return inst

    def terminate(self, inst):
        if self.current.terminator is None:
            self.current.terminator = inst

    def start_block(self, block):
        self.current = block

    def lookup(self, name):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def current_lp(self):
        return self.lp_stack[-1] if self.lp_stack else None

    def materialize(self, operand, loc):
        """Force an operand into a vreg (Imm -> const)."""
        if isinstance(operand, Imm):
            vreg = self.func.new_vreg()
            self.emit(IRInst("const", dst=vreg, value=operand.value, loc=loc))
            return vreg
        return operand

    # -- statements -----------------------------------------------------------

    def stmt(self, node):
        getattr(self, "_stmt_" + type(node).__name__)(node)

    def _stmt_Block(self, node):
        self.scopes.append({})
        for stmt in node.stmts:
            self.stmt(stmt)
        self.scopes.pop()

    def _stmt_VarDecl(self, node):
        vreg = self.func.new_vreg()
        self.scopes[-1][node.name] = vreg
        if node.init is not None:
            value = self.expr(node.init)
            if isinstance(value, Imm):
                self.emit(IRInst("const", dst=vreg, value=value.value, loc=node.loc))
            else:
                self.emit(IRInst("mov", dst=vreg, a=value, loc=node.loc))
        else:
            self.emit(IRInst("const", dst=vreg, value=0, loc=node.loc))

    def _stmt_Assign(self, node):
        value = self.expr(node.value)
        target = node.target
        if isinstance(target, ast.Name):
            vreg = self.lookup(target.name)
            if vreg is not None:
                if isinstance(value, Imm):
                    self.emit(IRInst("const", dst=vreg, value=value.value, loc=node.loc))
                else:
                    self.emit(IRInst("mov", dst=vreg, a=value, loc=node.loc))
            else:
                sym = self.module_sym(target.name)
                self.emit(IRInst("storeg", sym=sym, a=self.materialize(value, node.loc),
                                 loc=node.loc))
        else:
            index = self.expr(target.index)
            sym = self.module_sym(target.name)
            inst = IRInst(
                "storeidx", sym=sym, a=index,
                b=self.materialize(value, node.loc), loc=node.loc)
            inst.value = self.info.global_arrays[target.name].size
            self.emit(inst)

    def _stmt_If(self, node):
        then_block = self.func.new_block("then")
        join = self.func.new_block("join")
        if node.otherwise is not None:
            else_block = self.func.new_block("else")
        else:
            else_block = join
        self.cond_branch(node.cond, then_block.name, else_block.name, node.loc)
        self.start_block(then_block)
        self.stmt(node.then)
        self.terminate(IRInst("br", targets=(join.name,), loc=node.loc))
        if node.otherwise is not None:
            self.start_block(else_block)
            self.stmt(node.otherwise)
            self.terminate(IRInst("br", targets=(join.name,), loc=node.loc))
        self.start_block(join)

    def _stmt_While(self, node):
        header = self.func.new_block("loop")
        body = self.func.new_block("body")
        exit_block = self.func.new_block("exit")
        self.terminate(IRInst("br", targets=(header.name,), loc=node.loc))
        self.start_block(header)
        self.cond_branch(node.cond, body.name, exit_block.name, node.loc)
        self.loop_stack.append((header.name, exit_block.name))
        self.start_block(body)
        self.stmt(node.body)
        self.terminate(IRInst("br", targets=(header.name,), loc=node.loc))
        self.loop_stack.pop()
        self.start_block(exit_block)

    def _stmt_For(self, node):
        self.scopes.append({})
        if node.init is not None:
            self.stmt(node.init)
        header = self.func.new_block("loop")
        body = self.func.new_block("body")
        step_block = self.func.new_block("step")
        exit_block = self.func.new_block("exit")
        self.terminate(IRInst("br", targets=(header.name,), loc=node.loc))
        self.start_block(header)
        if node.cond is not None:
            self.cond_branch(node.cond, body.name, exit_block.name, node.loc)
        else:
            self.terminate(IRInst("br", targets=(body.name,), loc=node.loc))
        # `continue` targets the step block, not the header.
        self.loop_stack.append((step_block.name, exit_block.name))
        self.start_block(body)
        self.stmt(node.body)
        self.terminate(IRInst("br", targets=(step_block.name,), loc=node.loc))
        self.loop_stack.pop()
        self.start_block(step_block)
        if node.step is not None:
            self.stmt(node.step)
        self.terminate(IRInst("br", targets=(header.name,), loc=node.loc))
        self.start_block(exit_block)
        self.scopes.pop()

    def _stmt_Switch(self, node):
        value = self.materialize(self.expr(node.value), node.loc)
        end = self.func.new_block("swend")
        cases = {}
        case_blocks = []
        for case_value, body in node.cases:
            block = self.func.new_block("case")
            cases[case_value] = block.name
            case_blocks.append((block, body))
        if node.default is not None:
            default_block = self.func.new_block("swdef")
        else:
            default_block = end
        self.terminate(IRInst("switch", a=value, cases=cases,
                              targets=(default_block.name,), loc=node.loc))
        for block, body in case_blocks:
            self.start_block(block)
            self.stmt(body)
            self.terminate(IRInst("br", targets=(end.name,), loc=node.loc))
        if node.default is not None:
            self.start_block(default_block)
            self.stmt(node.default)
            self.terminate(IRInst("br", targets=(end.name,), loc=node.loc))
        self.start_block(end)

    def _stmt_Return(self, node):
        value = None
        if node.value is not None:
            value = self.expr(node.value)
            if isinstance(value, Imm):
                value = self.materialize(value, node.loc)
        self.terminate(IRInst("ret", a=value, loc=node.loc))
        self.start_block(self.func.new_block("dead"))

    def _stmt_Out(self, node):
        value = self.materialize(self.expr(node.value), node.loc)
        self.emit(IRInst("out", a=value, loc=node.loc))

    def _stmt_ExprStmt(self, node):
        self.expr(node.expr, want_result=False)

    def _stmt_Break(self, node):
        self.terminate(IRInst("br", targets=(self.loop_stack[-1][1],), loc=node.loc))
        self.start_block(self.func.new_block("dead"))

    def _stmt_Continue(self, node):
        self.terminate(IRInst("br", targets=(self.loop_stack[-1][0],), loc=node.loc))
        self.start_block(self.func.new_block("dead"))

    def _stmt_Throw(self, node):
        value = self.materialize(self.expr(node.value), node.loc)
        self.emit(IRInst("throw", a=value, lp=self.current_lp(), loc=node.loc))
        self.terminate(IRInst("unreachable", loc=node.loc))
        self.start_block(self.func.new_block("dead"))

    def _stmt_Try(self, node):
        lp_block = self.func.new_block("lpad")
        lp_block.is_landing_pad = True
        join = self.func.new_block("cont")
        self.lp_stack.append(lp_block.name)
        self.stmt(node.body)
        self.lp_stack.pop()
        self.terminate(IRInst("br", targets=(join.name,), loc=node.loc))
        # Handler: the landing pad receives the exception value.
        self.start_block(lp_block)
        vreg = self.func.new_vreg()
        self.emit(IRInst("landingpad", dst=vreg, loc=node.loc))
        self.scopes.append({node.catch_var: vreg})
        self.stmt(node.handler)
        self.scopes.pop()
        self.terminate(IRInst("br", targets=(join.name,), loc=node.loc))
        self.start_block(join)

    # -- conditions -------------------------------------------------------------

    def cond_branch(self, node, then_name, else_name, loc):
        """Lower a boolean condition with short-circuiting."""
        if isinstance(node, ast.Binary) and node.op == "&&":
            mid = self.func.new_block("and")
            self.cond_branch(node.left, mid.name, else_name, node.loc)
            self.start_block(mid)
            self.cond_branch(node.right, then_name, else_name, node.loc)
            return
        if isinstance(node, ast.Binary) and node.op == "||":
            mid = self.func.new_block("or")
            self.cond_branch(node.left, then_name, mid.name, node.loc)
            self.start_block(mid)
            self.cond_branch(node.right, then_name, else_name, node.loc)
            return
        if isinstance(node, ast.Unary) and node.op == "!":
            self.cond_branch(node.operand, else_name, then_name, node.loc)
            return
        if isinstance(node, ast.Binary) and node.op in CMP_OPS:
            a = self.expr(node.left)
            b = self.expr(node.right)
            oper = node.op
            if isinstance(a, Imm) and not isinstance(b, Imm):
                a, b = b, a
                oper = _CMP_SWAP[oper]
            a = self.materialize(a, loc)
            self.terminate(IRInst("cbr", oper=oper, a=a, b=b,
                                  targets=(then_name, else_name), loc=node.loc))
            return
        value = self.materialize(self.expr(node), loc)
        self.terminate(IRInst("cbr", oper="!=", a=value, b=Imm(0),
                              targets=(then_name, else_name), loc=loc))

    # -- expressions --------------------------------------------------------------

    def expr(self, node, want_result=True):
        """Lower an expression; returns a vreg or an Imm."""
        if isinstance(node, ast.Num):
            return Imm(node.value)
        if isinstance(node, ast.Name):
            vreg = self.lookup(node.name)
            if vreg is not None:
                return vreg
            sym = self.module_sym(node.name)
            decl = self.info.global_vars[node.name]
            dst = self.func.new_vreg()
            kind = "loadg"
            self.emit(IRInst(kind, dst=dst, sym=sym, loc=node.loc))
            if decl.const:
                # Mark const loads so simplify-ro-loads-style compiler
                # folding *could* happen; we leave them for BOLT.
                self.current.insts[-1].value = "const"
            return dst
        if isinstance(node, ast.Index):
            index = self.expr(node.index)
            dst = self.func.new_vreg()
            inst = IRInst("loadidx", dst=dst, sym=self.module_sym(node.name),
                          a=self.materialize(index, node.loc), loc=node.loc)
            inst.value = self.info.global_arrays[node.name].size
            self.emit(inst)
            return dst
        if isinstance(node, ast.FuncRef):
            dst = self.func.new_vreg()
            self.emit(IRInst("funcaddr", dst=dst, sym=self.link_name(node.name),
                             loc=node.loc))
            return dst
        if isinstance(node, ast.Call):
            return self._call(node, want_result)
        if isinstance(node, ast.Unary):
            operand = self.expr(node.operand)
            if isinstance(operand, Imm):
                if node.op == "-":
                    return Imm(-operand.value)
                return Imm(0 if operand.value else 1)
            dst = self.func.new_vreg()
            self.emit(IRInst("unop", oper=node.op, dst=dst, a=operand, loc=node.loc))
            return dst
        if isinstance(node, ast.Binary):
            if node.op in ("&&", "||"):
                return self._short_circuit_value(node)
            a = self.expr(node.left)
            b = self.expr(node.right)
            oper = node.op
            if isinstance(a, Imm) and not isinstance(b, Imm):
                if oper in ("+", "*", "&", "|", "^"):
                    a, b = b, a
                elif oper in _CMP_SWAP:
                    a, b = b, a
                    oper = _CMP_SWAP[oper]
            dst = self.func.new_vreg()
            self.emit(IRInst("binop", oper=oper, dst=dst,
                             a=self.materialize(a, node.loc), b=b, loc=node.loc))
            return dst
        raise BuildError(f"cannot lower expression {type(node).__name__}")

    def _short_circuit_value(self, node):
        """Lower ``a && b`` / ``a || b`` used as a value (0/1)."""
        dst = self.func.new_vreg()
        true_block = self.func.new_block("sctrue")
        false_block = self.func.new_block("scfalse")
        join = self.func.new_block("scjoin")
        self.cond_branch(node, true_block.name, false_block.name, node.loc)
        self.start_block(true_block)
        self.emit(IRInst("const", dst=dst, value=1, loc=node.loc))
        self.terminate(IRInst("br", targets=(join.name,), loc=node.loc))
        self.start_block(false_block)
        self.emit(IRInst("const", dst=dst, value=0, loc=node.loc))
        self.terminate(IRInst("br", targets=(join.name,), loc=node.loc))
        self.start_block(join)
        return dst

    def _call(self, node, want_result):
        args = [self.expr(arg) for arg in node.args]
        args = [a if isinstance(a, Imm) else a for a in args]
        dst = self.func.new_vreg() if want_result or True else None
        lp = self.current_lp()
        if node.indirect:
            callee = self.materialize(self.expr(node.callee), node.loc)
            self.emit(IRInst("icall", dst=dst, a=callee, args=args, lp=lp,
                             loc=node.loc))
        else:
            # A name that is a variable holding a function pointer is an
            # indirect call; a known/extern function name is direct.
            vreg = self.lookup(node.callee)
            if vreg is None and node.callee in self.info.global_vars:
                vreg = None
                gdst = self.func.new_vreg()
                self.emit(IRInst("loadg", dst=gdst,
                                 sym=self.module_sym(node.callee), loc=node.loc))
                self.emit(IRInst("icall", dst=dst, a=gdst, args=args, lp=lp,
                                 loc=node.loc))
                return dst
            if vreg is not None:
                self.emit(IRInst("icall", dst=dst, a=vreg, args=args, lp=lp,
                                 loc=node.loc))
            else:
                self.emit(IRInst("call", dst=dst, sym=self.link_name(node.callee),
                                 args=args, lp=lp, loc=node.loc))
        return dst

    # -- names ------------------------------------------------------------------

    def module_sym(self, name):
        """Link name for a module-level data symbol (always module-local)."""
        return f"{self.module.name}::{name}"

    def link_name(self, name):
        """Link name for a function reference."""
        func = self.info.functions.get(name)
        if func is not None and func.static:
            return f"{self.module.name}::{name}"
        return name


def build_function(module_ir, info, func_ast):
    builder = _FuncBuilder(module_ir, info, func_ast)
    builder.stmt(func_ast.body)
    builder.terminate(IRInst("ret", loc=func_ast.loc))
    func = builder.func
    # Give any dangling dead blocks a terminator so cleanup can run.
    for block in func.blocks.values():
        if block.terminator is None:
            block.terminator = IRInst("ret")
    remove_unreachable_blocks(func)
    return func


def build_module(module_ast, info=None):
    """Lower a checked AST module to IR."""
    if info is None:
        info = check_module(module_ast)
    module_ir = IRModule(module_ast.name)
    for decl in module_ast.globals:
        if isinstance(decl, ast.GlobalVar):
            module_ir.global_vars[decl.name] = (decl.init, decl.const)
        else:
            module_ir.global_arrays[decl.name] = (decl.size, list(decl.init), decl.const)
    for func_ast in module_ast.functions:
        module_ir.add_function(build_function(module_ir, info, func_ast))
    return module_ir
