"""Instruction-address-space heat maps (paper Figure 9).

The CPU's ``fetch_heat`` option records bytes fetched per instruction
address; these helpers fold that into the paper's 64x64 log-scale
matrix and compute the hot-footprint statistic behind the Figure 9
discussion (hot code packed from 148.2 MB of text into ~4 MB).
"""

import math


def _text_span(binary):
    lo, hi = None, 0
    for section in binary.sections.values():
        if section.is_exec:
            lo = section.addr if lo is None else min(lo, section.addr)
            hi = max(hi, section.end)
    return lo or 0, hi


def fetch_heatmap(cpu, grid=64, span=None):
    """``grid`` rows of ``grid`` log-scaled average fetches per byte.

    ``span`` defaults to the binary's executable address range; pass an
    explicit (lo, hi) to compare before/after on the same axis.
    """
    if cpu.fetch_heat is None:
        raise ValueError("run the CPU with fetch_heat=True")
    lo, hi = span or _text_span(cpu.machine.binary)
    total_bytes = max(1, hi - lo)
    cells = grid * grid
    block = max(1, (total_bytes + cells - 1) // cells)
    flat = [0] * cells
    for addr, count in cpu.fetch_heat.items():
        if lo <= addr < hi:
            flat[(addr - lo) // block] += count
    # Average fetches per byte, log-scaled.
    flat = [math.log10(n / block * 10 + 1) if n else 0.0 for n in flat]
    return [flat[row:row + grid] for row in range(0, cells, grid)]


def hot_footprint(cpu, coverage=0.99, block=64):
    """Bytes of address space covering ``coverage`` of all fetches.

    The Figure 9 statistic: how much address space the hot code spans.
    """
    if cpu.fetch_heat is None:
        raise ValueError("run the CPU with fetch_heat=True")
    blocks = {}
    for addr, count in cpu.fetch_heat.items():
        blocks[addr // block] = blocks.get(addr // block, 0) + count
    total = sum(blocks.values())
    if total == 0:
        return 0
    covered = 0
    used = 0
    for count in sorted(blocks.values(), reverse=True):
        covered += count
        used += block
        if covered >= coverage * total:
            break
    return used


def hot_span(cpu, coverage=0.99, block=64):
    """Address-range spread (max-min) of the blocks holding the hot
    ``coverage`` of fetches — how far apart hot code sits."""
    if cpu.fetch_heat is None:
        raise ValueError("run the CPU with fetch_heat=True")
    blocks = {}
    for addr, count in cpu.fetch_heat.items():
        blocks[addr // block] = blocks.get(addr // block, 0) + count
    total = sum(blocks.values())
    if total == 0:
        return 0
    chosen = []
    covered = 0
    for index, count in sorted(blocks.items(), key=lambda kv: -kv[1]):
        chosen.append(index)
        covered += count
        if covered >= coverage * total:
            break
    return (max(chosen) - min(chosen) + 1) * block


def render_heatmap(matrix, levels=" .:-=+*#%@"):
    """ASCII rendering of a heat matrix (for reports/tests)."""
    hi = max(map(max, matrix)) or 1.0
    rows = []
    for row in matrix:
        rows.append("".join(
            levels[min(len(levels) - 1, int(v / hi * (len(levels) - 1)))]
            for v in row))
    return "\n".join(rows)
