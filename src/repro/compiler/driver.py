"""The compiler driver."""

from repro.belf import (
    Binary,
    Section,
    SectionFlag,
    SectionType,
    Symbol,
    SymbolBind,
    SymbolType,
)
from repro.codegen import CodegenOptions, emit_object, select_function
from repro.ir import (
    build_module,
    inline_module,
    InlinePolicy,
    layout_blocks,
    optimize_module,
)
from repro.ir.instrument import instrument_module
from repro.compiler.fdo import (
    EdgeProfile,
    SourceProfile,
    attach_edge_profile,
    attach_source_profile,
)
from repro.lang import parse_module, check_module
from repro.linker import link


class BuildOptions:
    """End-to-end build configuration."""

    def __init__(
        self,
        opt_level=2,
        lto=False,
        instrument=False,
        profile=None,
        codegen=None,
        inline=None,
    ):
        self.opt_level = opt_level
        self.lto = lto
        self.instrument = instrument
        self.profile = profile
        self.codegen = codegen or CodegenOptions()
        self.inline = inline or InlinePolicy()

    def copy(self, **overrides):
        out = BuildOptions(
            opt_level=self.opt_level,
            lto=self.lto,
            instrument=self.instrument,
            profile=self.profile,
            codegen=self.codegen,
            inline=self.inline,
        )
        for key, value in overrides.items():
            setattr(out, key, value)
        return out


class CompileResult:
    """Objects plus build metadata.

    ``counter_keys`` names the instrumentation counters in ``__profc``
    order (empty unless instrumented).  The IR is not kept: it is freed
    when ``compile_program`` returns, and the objects once the caller
    has linked them.
    """

    def __init__(self, objects, counter_keys=None):
        self.objects = objects
        self.counter_keys = counter_keys or []


def build_ir(sources):
    """Parse + check + lower each (name, text) source to an IRModule."""
    modules = []
    for name, text in sources:
        ast = parse_module(text, name)
        info = check_module(ast)
        modules.append(build_module(ast, info))
    return modules


def compile_program(sources, options=None):
    """Compile source modules to relocatable objects.

    Phase order matters and mirrors real FDO pipelines:

    1. lower to IR;
    2. attach profile (or insert instrumentation) on the *fresh* IR,
       keyed by stable pre-optimization block names / source lines;
    3. inline (same-module, or cross-module with LTO), scaling counts;
    4. -O2 cleanup passes;
    5. profile-guided block layout;
    6. instruction selection + object emission.
    """
    options = options or BuildOptions()
    modules = build_ir(sources)

    counter_keys = []
    use_profile = options.profile is not None
    if options.instrument:
        for module in modules:
            counter_keys.extend(instrument_module(module, len(counter_keys)))
    elif isinstance(options.profile, EdgeProfile):
        for module in modules:
            for func in module.functions.values():
                attach_edge_profile(func, options.profile)
    elif isinstance(options.profile, SourceProfile):
        for module in modules:
            for func in module.functions.values():
                attach_source_profile(func, options.profile)

    if options.opt_level >= 2:
        inline_module(modules, policy=options.inline, lto=options.lto,
                      use_profile=use_profile)
    for module in modules:
        optimize_module(module, level=options.opt_level)
        if use_profile:
            for func in module.functions.values():
                layout_blocks(func)

    objects = []
    for module in modules:
        machine_funcs = [
            select_function(func, options.codegen)
            for func in module.functions.values()
        ]
        objects.append(emit_object(module, machine_funcs, options.codegen))
    if options.instrument:
        objects.append(make_counter_object(len(counter_keys)))
    return CompileResult(objects, counter_keys=counter_keys)


def make_counter_object(num_counters):
    """A synthetic object providing the global __profc counter array."""
    binary = Binary(kind="object", name="__profc_module")
    section = Section(".bss", type=SectionType.NOBITS,
                      flags=SectionFlag.ALLOC | SectionFlag.WRITE,
                      align=8, mem_size=8 * max(1, num_counters))
    binary.add_section(section)
    binary.add_symbol(Symbol("__profc", value=0, size=8 * max(1, num_counters),
                             type=SymbolType.OBJECT, bind=SymbolBind.GLOBAL,
                             section=".bss"))
    return binary


def build_executable(sources, options=None, libs=(), lib_options=None,
                     name="a.out", entry="main", emit_relocs=False,
                     function_order=None, icf=False):
    """Compile and link in one step.

    ``libs``: extra source module lists compiled separately and linked
    as PIC libraries (their exports are called through the PLT).
    Returns (executable Binary, CompileResult).
    """
    options = options or BuildOptions()
    result = compile_program(sources, options)
    lib_objects = []
    if libs:
        lib_result = compile_program(libs, lib_options or BuildOptions())
        lib_objects = lib_result.objects
    exe = link(result.objects, libs=lib_objects, name=name, entry=entry,
               emit_relocs=emit_relocs, function_order=function_order,
               icf=icf)
    return exe, result
