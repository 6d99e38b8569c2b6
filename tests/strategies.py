"""Hypothesis strategies shared by several test modules."""

from hypothesis import strategies as st

from repro.workloads import WorkloadSpec


@st.composite
def workload_specs(draw):
    """A randomly shaped generated workload: switches, function
    pointers, EH, indirect tail calls, duplicate leaves, an asm module
    and the runtime library each come and go."""
    return WorkloadSpec(
        "fuzz",
        seed=draw(st.integers(0, 10_000)),
        modules=draw(st.integers(1, 3)),
        workers_per_module=draw(st.integers(2, 5)),
        leaves_per_module=draw(st.integers(1, 3)),
        iterations=draw(st.integers(20, 60)),
        hot_entries=draw(st.integers(1, 2)),
        switch_funcs_per_module=draw(st.integers(0, 2)),
        fptr_funcs_per_module=draw(st.integers(0, 1)),
        itail_funcs_per_module=draw(st.integers(0, 1)),
        eh_funcs_per_module=draw(st.integers(0, 1)),
        dup_leaf_groups=draw(st.integers(0, 2)),
        asm_module=draw(st.booleans()),
        cold_modulus=draw(st.sampled_from((17, 41, 101))),
        use_runtime_lib=draw(st.booleans()),
        input_kind=draw(st.sampled_from(("uniform", "skewed", "bursty"))),
    )
