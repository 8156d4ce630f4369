"""Dynamic trace generation from a synthetic static program.

The generator walks the program's control flow, sampling loop trip counts,
hammock outcomes and memory stream addresses from a seeded RNG, and emits
:class:`~repro.isa.DynInst` records.  The same (benchmark, seed, length)
triple always yields an identical trace, so every core model sees the same
dynamic instruction stream — the property the paper's relative-IPC
methodology depends on.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.isa.instruction import DynInst, build_dyninst, static_template
from repro.isa.opclass import OpClass, is_branch, is_fp, is_mem
from repro.workloads.profiles import get_profile
from repro.workloads.program import (
    BasicBlock,
    BranchKind,
    MemStream,
    StreamKind,
    SyntheticProgram,
    build_program,
)


class _StreamState:
    """Mutable cursor over one memory stream."""

    def __init__(self, stream: MemStream, rng: random.Random):
        self._stream = stream
        self._rng = rng
        self._cursor = 0
        # Tight reuse window: loads re-read *recent* stores so that
        # store-to-load forwarding and ordering hazards occur while the
        # store is still in flight (a 32-entry store queue).
        self._recent_stores: Deque[int] = deque(maxlen=3)

    def next_addr(self, is_store: bool) -> int:
        """Produce the next effective address on this stream."""
        stream = self._stream
        if stream.kind is StreamKind.SEQ:
            addr = stream.base + (self._cursor * stream.stride) % stream.size
            self._cursor += 1
            return addr
        if stream.kind is StreamKind.RAND:
            slots = stream.size // 8
            return stream.base + 8 * self._rng.randrange(slots)
        # STACK: stores populate a small hot set; loads mostly re-read it,
        # creating store-to-load forwarding and ordering hazards.
        slots = stream.size // 8
        if is_store:
            addr = stream.base + 8 * self._rng.randrange(slots)
            self._recent_stores.append(addr)
            return addr
        if self._recent_stores and self._rng.random() < 0.6:
            return self._recent_stores[-1 - self._rng.randrange(
                len(self._recent_stores))]
        return stream.base + 8 * self._rng.randrange(slots)


class TraceGenerator:
    """Walks a :class:`SyntheticProgram` and emits dynamic instructions."""

    def __init__(self, program: SyntheticProgram, seed: int = 0):
        self._program = program
        self._rng = random.Random(f"{program.profile.name}:dyn:{seed}")
        self._streams = [
            _StreamState(s, self._rng) for s in program.streams
        ]
        self._seq = 0
        # The derived DynInst fields are a pure function of the static
        # instruction, so they are computed once per static (keyed by
        # identity: the program outlives the map).
        self._templates = {
            id(static): static_template(static.pc, static.op,
                                        static.dest, static.srcs)
            for block in (*program.blocks, *program.functions)
            for static in block.insts
        }
        # Data-dependent ("random") branches are Markov-correlated: real
        # hard branches repeat their last outcome more often than not.
        self._last_outcome: Dict[int, bool] = {}
        # Control-flow cursor.
        self._block_idx = 0
        self._inst_idx = 0
        self._in_function: Optional[BasicBlock] = None
        self._return_block = 0
        self._trips_left = self._sample_trips(program.blocks[0])

    def _sample_trips(self, block: BasicBlock) -> int:
        """Trip count for one visit of ``block``'s loop.

        Trip counts are fixed per block (sampled once at program build):
        loop exits are then periodic, which is what lets a history-based
        predictor learn them — the property real loop branches have.
        """
        return max(1, round(block.loop_trip_mean))

    def _current_block(self) -> BasicBlock:
        if self._in_function is not None:
            return self._in_function
        return self._program.blocks[self._block_idx]

    def _enter_block(self, index: int) -> None:
        self._block_idx = index % len(self._program.blocks)
        self._inst_idx = 0
        self._in_function = None
        self._trips_left = self._sample_trips(
            self._program.blocks[self._block_idx]
        )

    def _step(self) -> DynInst:
        """Advance one dynamic instruction."""
        block = self._current_block()
        static = block.insts[self._inst_idx]
        template = self._templates[id(static)]
        seq = self._seq
        self._seq = seq + 1

        if is_mem(static.op):
            stream = self._streams[static.stream_id]
            addr = stream.next_addr(
                static.op in (OpClass.STORE, OpClass.FP_STORE)
            )
            self._inst_idx += 1
            return build_dyninst(template, seq, addr, static.mem_size)

        if not is_branch(static.op):
            self._inst_idx += 1
            return build_dyninst(template, seq)

        behavior = static.branch
        assert behavior is not None
        if behavior.kind in (BranchKind.HAMMOCK, BranchKind.RANDOM):
            if behavior.kind is BranchKind.RANDOM:
                last = self._last_outcome.get(static.pc)
                if last is None or self._rng.random() >= 0.75:
                    taken = self._rng.random() < behavior.taken_prob
                else:
                    taken = last
                self._last_outcome[static.pc] = taken
            else:
                taken = self._rng.random() < behavior.taken_prob
            if taken:
                target = static.pc + 4 * (behavior.skip + 1)
                self._inst_idx += behavior.skip + 1
                return build_dyninst(template, seq, taken=True, target=target)
            self._inst_idx += 1
            return build_dyninst(template, seq)

        if behavior.kind is BranchKind.LOOP:
            if self._trips_left > 1:
                self._trips_left -= 1
                self._inst_idx = 0
                return build_dyninst(template, seq, taken=True,
                                     target=block.pc)
            self._enter_block(self._block_idx + 1)
            return build_dyninst(template, seq)

        if behavior.kind is BranchKind.CALL:
            callee = self._program.functions[behavior.callee]
            self._return_block = self._block_idx + 1
            self._in_function = callee
            self._inst_idx = 0
            return build_dyninst(template, seq, taken=True, target=callee.pc)

        if behavior.kind is BranchKind.RET:
            target_block = self._program.blocks[
                self._return_block % len(self._program.blocks)
            ]
            self._enter_block(self._return_block)
            return build_dyninst(template, seq, taken=True,
                                 target=target_block.pc)

        # UNCOND: jump to the next block.
        next_block = self._program.blocks[
            (self._block_idx + 1) % len(self._program.blocks)
        ]
        self._enter_block(self._block_idx + 1)
        return build_dyninst(template, seq, taken=True, target=next_block.pc)

    def generate(self, n: int) -> List[DynInst]:
        """Generate the next ``n`` dynamic instructions."""
        return [self._step() for _ in range(n)]


def generate_trace(
    benchmark: str, n: int, seed: int = 0
) -> List[DynInst]:
    """Build the program for ``benchmark`` and generate ``n`` instructions.

    Convenience entry point used by experiments and examples.
    """
    profile = get_profile(benchmark)
    program = build_program(profile, seed=seed)
    return TraceGenerator(program, seed=seed).generate(n)


def renumber_trace(trace: List[DynInst]) -> List[DynInst]:
    """Re-sequence a trace slice so it starts at seq 0.

    Core models require ``trace[i].seq == i`` (ordering-violation replay
    rewinds by sequence number); use this on the measurement portion when
    a warm-up prefix was drawn from the same generator.
    """
    return [
        DynInst(seq=i, pc=inst.pc, op=inst.op, dest=inst.dest,
                srcs=inst.srcs, mem_addr=inst.mem_addr,
                mem_size=inst.mem_size, taken=inst.taken,
                target=inst.target)
        for i, inst in enumerate(trace)
    ]


def generate_trace_pair(
    benchmark: str, warmup: int, measure: int, seed: int = 0
) -> Tuple[List[DynInst], List[DynInst]]:
    """The (warm-up, measured) traces of one simulation job.

    Both slices come from one generator, so the measured interval
    continues the warm-up's instruction stream; it is numbered from
    seq 0, as the cores require.  Equal, record for record, to
    ``renumber_trace`` applied to the generator's second slice.
    """
    generator = TraceGenerator(
        build_program(get_profile(benchmark), seed=seed), seed=seed)
    warm = generator.generate(warmup)
    generator._seq = 0
    return warm, generator.generate(measure)


def trace_mix(trace: List[DynInst]) -> Dict[str, float]:
    """Measure the category mix of a generated trace.

    Returns fractions for: int_ops (paper's "INT operations"), fp_ops,
    loads, stores, branches — useful for validating profiles.
    """
    if not trace:
        return {"int_ops": 0.0, "fp_ops": 0.0, "loads": 0.0,
                "stores": 0.0, "branches": 0.0}
    n = len(trace)
    fp_ops = sum(1 for i in trace if is_fp(i.op))
    loads = sum(1 for i in trace if i.is_load)
    stores = sum(1 for i in trace if i.is_store)
    branches = sum(1 for i in trace if i.is_branch)
    int_ops = n - fp_ops - loads - stores
    return {
        "int_ops": int_ops / n,
        "fp_ops": fp_ops / n,
        "loads": loads / n,
        "stores": stores / n,
        "branches": branches / n,
    }
