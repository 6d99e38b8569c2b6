"""Register file definition for the BX86 ISA.

Sixteen 64-bit general purpose registers with x86_64-style names and an
x86_64-SysV-style calling convention:

* arguments: rdi, rsi, rdx, rcx, r8, r9
* return value: rax
* stack pointer: rsp, frame pointer: rbp
* callee-saved: rbx, rbp, r12-r15
* everything else caller-saved
"""

NUM_REGS = 16

RAX, RCX, RDX, RBX, RSP, RBP, RSI, RDI = range(8)
R8, R9, R10, R11, R12, R13, R14, R15 = range(8, 16)

REG_NAMES = (
    "rax",
    "rcx",
    "rdx",
    "rbx",
    "rsp",
    "rbp",
    "rsi",
    "rdi",
    "r8",
    "r9",
    "r10",
    "r11",
    "r12",
    "r13",
    "r14",
    "r15",
)

#: Order in which integer arguments are passed.
ARG_REGS = (RDI, RSI, RDX, RCX, R8, R9)

#: Registers a callee must preserve (rbp handled by the frame code).
CALLEE_SAVED = (RBX, R12, R13, R14, R15)

#: Registers a caller must assume are clobbered by a call.
CALLER_SAVED = (RAX, RCX, RDX, RSI, RDI, R8, R9, R10, R11)

#: Registers the register allocator may hand out (excludes rsp/rbp).
ALLOCATABLE = (RAX, RCX, RDX, RSI, RDI, R8, R9, R10, R11, RBX, R12, R13, R14, R15)


def reg_name(reg):
    """Return the canonical name for a register index."""
    return REG_NAMES[reg]
