"""The trace generator's per-static DynInst construction path.

The generator builds records through :func:`build_dyninst` from a
per-static :func:`static_template`, which holds the nine derived fields
computed once; the fast path skips the public constructor's checks.
These tests pin that path to the public ``DynInst(...)`` constructor,
field for field, and pin the seq-0 measured trace to
``renumber_trace``.
"""

import dataclasses

import pytest

from repro.isa import DynInst, OpClass, fp_reg, int_reg, is_mem
from repro.isa.instruction import build_dyninst, static_template
from repro.workloads import (
    ALL_BENCHMARKS,
    TraceGenerator,
    build_program,
    generate_trace_pair,
    get_profile,
    renumber_trace,
)

FIELDS = [f.name for f in dataclasses.fields(DynInst)]


def _values(inst):
    """Every field, derived ones included (they are compare=False)."""
    return tuple(getattr(inst, name) for name in FIELDS)


def _operands(op):
    dest = None if op in (OpClass.STORE, OpClass.FP_STORE, OpClass.NOP,
                          OpClass.BR_COND, OpClass.BR_UNCOND,
                          OpClass.RET) else int_reg(3)
    return dict(pc=0x400040, op=op, dest=dest,
                srcs=(int_reg(1), fp_reg(2)))


@pytest.mark.parametrize("op", list(OpClass), ids=lambda op: op.value)
def test_fast_path_equals_public_constructor(op):
    operands = _operands(op)
    template = static_template(**operands)
    dynamic = dict(mem_addr=0x10000040, mem_size=8) if is_mem(op) else {}
    variants = [dynamic]
    if not is_mem(op):
        variants.append(dict(taken=True, target=0x400100))
    for extra in variants:
        built = build_dyninst(template, 7, **extra)
        public = DynInst(seq=7, **operands, **extra)
        assert type(built) is DynInst
        assert built == public
        assert _values(built) == _values(public)


def test_fast_path_shares_derived_fields_across_instances():
    template = static_template(pc=0x400000, op=OpClass.INT_ALU,
                               dest=int_reg(4),
                               srcs=(int_reg(1), int_reg(2)))
    first = build_dyninst(template, 0)
    second = build_dyninst(template, 1)
    assert first.src_flats == (1, 2)
    assert first.src_flats is second.src_flats


def test_public_constructor_still_validates():
    with pytest.raises(ValueError, match="requires a memory address"):
        DynInst(seq=0, pc=0, op=OpClass.LOAD, dest=int_reg(1))
    with pytest.raises(ValueError, match="must not carry a memory"):
        DynInst(seq=0, pc=0, op=OpClass.INT_ALU, mem_addr=64)
    with pytest.raises(ValueError, match="taken branch requires a target"):
        DynInst(seq=0, pc=0, op=OpClass.BR_COND, taken=True)


@pytest.mark.parametrize("name", FIELDS)
def test_records_stay_frozen(name):
    built = build_dyninst(static_template(0, OpClass.LOAD, int_reg(1), ()),
                          0, 64, 8)
    public = DynInst(seq=0, pc=0, op=OpClass.LOAD, dest=int_reg(1),
                     mem_addr=64, mem_size=8)
    for inst in (built, public):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(inst, name, getattr(inst, name))


@pytest.mark.parametrize("seed", [0, 3])
def test_seq0_measure_trace_equals_renumbered_slice(seed):
    for benchmark in ALL_BENCHMARKS:
        warm, measure = generate_trace_pair(benchmark, 400, 300, seed)
        generator = TraceGenerator(
            build_program(get_profile(benchmark), seed=seed), seed=seed)
        assert ([_values(i) for i in warm]
                == [_values(i) for i in generator.generate(400)])
        expected = renumber_trace(generator.generate(300))
        assert ([_values(i) for i in measure]
                == [_values(i) for i in expected]), benchmark
        assert [inst.seq for inst in measure] == list(range(300))
