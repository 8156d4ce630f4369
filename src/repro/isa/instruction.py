"""Dynamic instruction record — the unit of a simulation trace.

The simulator is trace-driven: the workload generator produces a stream of
``DynInst`` records carrying everything the timing model needs (op class,
register operands, memory address, branch outcome).  The cores annotate a
*shadow* of per-instruction pipeline state elsewhere; the trace record
itself stays immutable so a trace can be replayed across models.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Tuple

from repro.isa.opclass import (
    FU_FOR_OPCLASS,
    FUType,
    IXU_ELIGIBLE,
    LATENCY,
    OpClass,
    is_branch,
    is_load,
    is_mem,
    is_store,
)
from repro.isa.registers import Reg


@dataclass(frozen=True, slots=True)
class DynInst:
    """One dynamic instruction as it appears in a trace.

    Attributes:
        seq: Position in the dynamic instruction stream (0-based).
        pc: Instruction address; repeated PCs let predictors train.
        op: Operation class.
        dest: Destination logical register, or None.
        srcs: Source logical registers (zero registers are pre-filtered
            by the generator and never appear here).
        mem_addr: Effective address for loads/stores, else None.
        mem_size: Access size in bytes for loads/stores, else 0.
        taken: Branch outcome for control instructions, else False.
        target: Branch target address when taken, else None.
        is_branch/is_mem/is_load/is_store: Op-class category flags,
            precomputed at construction — the cores test them every
            cycle for every in-flight instruction.
    """

    seq: int
    pc: int
    op: OpClass
    dest: Optional[Reg] = None
    srcs: Tuple[Reg, ...] = field(default=())
    mem_addr: Optional[int] = None
    mem_size: int = 0
    taken: bool = False
    target: Optional[int] = None
    is_branch: bool = field(init=False, repr=False, compare=False)
    is_mem: bool = field(init=False, repr=False, compare=False)
    is_load: bool = field(init=False, repr=False, compare=False)
    is_store: bool = field(init=False, repr=False, compare=False)
    fu_type: "FUType" = field(init=False, repr=False, compare=False)
    latency: int = field(init=False, repr=False, compare=False)
    ixu_eligible: bool = field(init=False, repr=False, compare=False)
    src_flats: Tuple[int, ...] = field(init=False, repr=False,
                                       compare=False)
    dest_flat: Optional[int] = field(init=False, repr=False,
                                     compare=False)

    def __post_init__(self) -> None:
        mem = is_mem(self.op)
        if mem and self.mem_addr is None:
            raise ValueError(f"{self.op} requires a memory address")
        if not mem and self.mem_addr is not None:
            raise ValueError(f"{self.op} must not carry a memory address")
        if self.taken and self.target is None:
            raise ValueError("taken branch requires a target")
        for setter, value in zip(_DERIVED_SETTERS, derived_fields(
                self.op, self.dest, self.srcs)):
            setter(self, value)

    @property
    def fall_through(self) -> int:
        """Address of the next sequential instruction."""
        return self.pc + 4

    @property
    def next_pc(self) -> int:
        """Address control actually flows to after this instruction."""
        if self.taken and self.target is not None:
            return self.target
        return self.fall_through

    def __repr__(self) -> str:
        operands = ", ".join(repr(s) for s in self.srcs)
        dest = f"{self.dest!r} <- " if self.dest is not None else ""
        extra = ""
        if self.is_mem:
            extra = f" [0x{self.mem_addr:x}]"
        elif self.is_branch:
            extra = f" ({'T' if self.taken else 'NT'})"
        return (
            f"<#{self.seq} pc=0x{self.pc:x} {self.op.value} "
            f"{dest}{operands}{extra}>"
        )


def derived_fields(op: OpClass, dest: Optional[Reg],
                   srcs: Tuple[Reg, ...]) -> Tuple:
    """The nine derived :class:`DynInst` fields, in declaration order.

    All are pure functions of the static operands.  The op-class flags,
    FU routing and base latency save the cores a lookup per issue
    attempt; the dense register indices (see ``Reg.flat``) subscript the
    in-order core's readiness table directly.
    """
    return (is_branch(op), is_mem(op), is_load(op), is_store(op),
            FU_FOR_OPCLASS[op], LATENCY[op], op in IXU_ELIGIBLE,
            tuple(s.flat for s in srcs),
            dest.flat if dest is not None else None)


#: Slot setters of every DynInst field, in declaration order; they
#: write a frozen instance's slots without going through ``__setattr__``.
(_set_seq, _set_pc, _set_op, _set_dest, _set_srcs, _set_mem_addr,
 _set_mem_size, _set_taken, _set_target, _set_is_branch, _set_is_mem,
 _set_is_load, _set_is_store, _set_fu_type, _set_latency,
 _set_ixu_eligible, _set_src_flats, _set_dest_flat) = _SETTERS = tuple(
    DynInst.__dict__[f.name].__set__ for f in fields(DynInst))
_DERIVED_SETTERS = _SETTERS[9:]
_new = object.__new__


def static_template(pc: int, op: OpClass, dest: Optional[Reg],
                    srcs: Tuple[Reg, ...]) -> Tuple:
    """The fields every dynamic instance of one static instruction
    shares, derived ones included, for :func:`build_dyninst`."""
    return (pc, op, dest, srcs, *derived_fields(op, dest, srcs))


def build_dyninst(template: Tuple, seq: int,
                  mem_addr: Optional[int] = None, mem_size: int = 0,
                  taken: bool = False,
                  target: Optional[int] = None) -> DynInst:
    """The trace generator's fast path to a :class:`DynInst`.

    Equal, field for field, to ``DynInst(seq, pc, op, dest, srcs,
    mem_addr, mem_size, taken, target)`` for ``template =
    static_template(pc, op, dest, srcs)``, but the derived fields are
    copied from the template (one shared ``src_flats`` tuple included)
    instead of recomputed, and the constructor's operand checks are
    skipped: the caller guarantees that exactly the memory ops carry an
    address and that every taken branch has a target.
    """
    (pc, op, dest, srcs, branch, mem, load, store, fu_type, latency, ixu,
     src_flats, dest_flat) = template
    inst = _new(DynInst)
    _set_seq(inst, seq)
    _set_pc(inst, pc)
    _set_op(inst, op)
    _set_dest(inst, dest)
    _set_srcs(inst, srcs)
    _set_mem_addr(inst, mem_addr)
    _set_mem_size(inst, mem_size)
    _set_taken(inst, taken)
    _set_target(inst, target)
    _set_is_branch(inst, branch)
    _set_is_mem(inst, mem)
    _set_is_load(inst, load)
    _set_is_store(inst, store)
    _set_fu_type(inst, fu_type)
    _set_latency(inst, latency)
    _set_ixu_eligible(inst, ixu)
    _set_src_flats(inst, src_flats)
    _set_dest_flat(inst, dest_flat)
    return inst
