"""Block translation of the timing core.

:meth:`~repro.timing.core.TimingSimulator.run` simulates a program one
translated *block* at a time, as :meth:`~repro.functional.FunctionalMachine.run`
does.  A block is a Python function that executes its instructions (with
the functional translator's op emitters) and their fetch, dispatch,
issue, complete and retire bookkeeping together.  Register sources,
destination, latency, the mem/control/load/store flags and the
fetch-block crossings inside the block are constants; a register's ready
cycle lives in a local from its first read or write in the block until
the block stores it on exit.

Blocks start only at a program's *starts*: its entry, every direct
transfer's target, the pc after every transfer, and each HALT and
poisoned slot.  A block runs from its start through its first control
transfer, and ends early before the next start or after
:data:`~repro.functional.blocks.BLOCK_CAP` (or ``rob_entries``, if
smaller) instructions.

Compiling a block costs far more than running it a few times, and at
short run lengths most code runs only a few times.  So code first runs
as *singles*: one-instruction translations whose operands arrive in a
tuple ``K``.  Singles of one shape (opcode, flags, a zero immediate,
and which of their registers coincide) share one compiled function, so a single costs a
tuple and a function object.  A start
entered :data:`PROMOTE_AFTER` times is translated as a whole block with
its operands as literals.  Singles also step a run to a bound inside a
block (its end, or the end of the ``measure_after`` ramp) and from a pc
inside a block (where the last run stopped) to the next start.

The core's pipeline state is

- four bandwidth limiters (fetch, dispatch, issue, retire), each one
  integer ``p = cycle * width + used - 1``: at most `width` events per
  cycle, so ``take(ready)`` is ``p = max(p + 1, ready * width)`` and the
  event's cycle is ``p // width`` (requests arrive in program order, so
  only the current cycle is tracked);
- the ROB, a ring of ``rob_entries`` retire cycles: it frees in program
  order, so the instruction with sequence number `i` may dispatch once
  instruction ``i - rob_entries`` (slot ``i % rob_entries``) retired;
- the issue queue, the LSQ and the branch checkpoints, each a min-heap
  of release cycles with one entry per slot: they free out of order, so
  an instruction takes the earliest-freed slot (the heap's top) and
  :func:`heapq.heapreplace` puts its own release cycle in its place.

The ROB ring and the heaps start full of −1, a slot free since before
cycle 0.  A block receives them in its environment ``E``, with the
machine ``m``, its registers ``r`` and its memory's word dictionary
``W`` (``restore()`` replaces both, so ``run`` binds them on every
call; loads and stores read and write ``W`` in line, as in the
functional blocks), the program's instructions ``I``, the
per-register ready cycles ``rr``, ``hierarchy.timed_access``,
``predictor.predict_and_update``, the ``pre_branch_hook`` (or None) and
the core's widths, front-end depth, mispredict penalty and ROB size.
The scalars travel in the state tuple ``S = (pc, pf, pd, pi, pr, nf,
cb)`` — the four limiters, the next fetch cycle and the current fetch
block — which a block unpacks on entry and returns, with its successor
pc first.  ``n`` is the machine's retired count at block entry.

``ld r4, 8(r3); beq r4, r0, 5`` at pc 10 (second slot of its fetch
block) becomes::

    def block(E, S, n):
        (m, r, W, I, rr, rob, iq, lsq, cp, ta, pu, bh,
         FW, DW, IW, RW, FD, PEN, C) = E
        _, pf, pd, pi, pr, nf, cb = S
        k = n % C - C
        y = nf * FW
        x = (r[3] + 8) & 18446744073709551615
        r[4] = W.get(x & 18446744073709551608, 0)
        pf += 1
        if cb != 1:
            w = (nf + ta(4136, False, True, nf) - 1) * FW
            if pf < w: pf = w
        elif pf < y: pf = y
        d = pf // FW + FD
        ...                     # ROB, IQ and LSQ slots; dispatch limiter
        g0_0 = rr[3]
        w = pd // DW + 1
        if g0_0 > w: w = g0_0
        ...                     # issue limiter into ic; hr(iq, ic)
        c0 = ic + ta(x, False, False, ic)
        ...                     # retire limiter; rob[k] = pr // RW
        hr(lsq, c0)
        tk = r[4] == r[0]
        nx = 5 if tk else 12
        ...                     # fetch, dispatch, issue (reads c0)
        if bh is not None:
            m.pc = nx; m.instructions_retired = n + 2
            bh(11, I[11])
        hr(cp, c1)
        cb = 1
        if pu(11, I[11], tk, nx):
            nf = c1 + PEN; cb = -1
        elif tk:
            nf = pf // FW + 1
        ...                     # retire; rob[k + 1] = pr // RW
        rr[4] = c0
        return (nx, pf, pd, pi, pr, nf, cb)

The hierarchy and the predictor see the calls the step-driven loop made,
in the same order and with the same cycles: per instruction, the
instruction fetch on a fetch-block change, then the data access, then
the ``pre_branch_hook`` and ``predict_and_update``.  Before the hook
runs, the block writes ``m.pc`` and ``m.instructions_retired`` as
``step()`` leaves them.

A table entry is ``(function, length)``.  Length 0 marks a HALT
(``step()``, then fetch and dispatch only; the run's last cycle is one
past its dispatch) and a pc outside the program (its ``step()`` raises
``ValueError``); −1 marks a start still running as singles.  A poisoned
slot's functional part is a ``step()`` call.

Tables are cached in ``PredecodedProgram.blocks`` under ``("timing",
fetch-block size in instructions, block cap)``, apart from the
functional tables' three-field keys.  Nothing else is baked in, so one
table serves every core config (with 64 or more ROB entries) and both
hook signatures.  Each translation defines its function in a namespace
of its own, so threads sharing one program may translate at once.
"""

from __future__ import annotations

import os
from heapq import heapreplace
from types import FunctionType

from ..functional.blocks import (
    BLOCK_CAP, OP_GLOBALS, execute_lines, operand_fields, transfer_parts,
)
from ..functional.predecode import predecode_program
from ..isa import Opcode

#: Entries of a start, as singles, before it is translated as a block.
PROMOTE_AFTER = 32

_ENTRY = ("def block(E, S, n{}):\n"
          "    (m, r, W, I, rr, rob, iq, lsq, cp, ta, pu, bh,\n"
          "     FW, DW, IW, RW, FD, PEN, C) = E\n"
          "    _, pf, pd, pi, pr, nf, cb = S\n"
          "    k = n % C - C\n"
          "    y = nf * FW\n")

_GLOBALS = {**OP_GLOBALS, "hr": heapreplace}

#: Compiled singles, by shape (see ``TimingBlockTable._shape``): their
#: code, the names of the operands ``K`` holds, and their length.
_SINGLES: dict = {}


def _literal(value: int, name: str) -> str:
    return str(value)


def _compile(source: str):
    namespace: dict = {}
    exec(compile(source, "<translated timing block>", "exec"), _GLOBALS,
         namespace)
    return namespace["block"]


class _Operands(dict):
    """The op emitters' format fields, each spelled by `operand` the
    first time a template reads it; the masks and the zero-immediate
    flag stay literal."""

    def __init__(self, values: dict, operand) -> None:
        super().__init__(M=values.pop("M"), S=values.pop("S"),
                         Z=values.pop("Z"))
        self._values = values
        self._operand = operand

    def __missing__(self, name: str) -> str:
        self[name] = spelled = self._operand(self._values[name], "K" + name)
        return spelled


class TimingBlockTable(dict):
    """``pc -> (function, length)`` for one program, one fetch-block size
    and one block cap; a pc is translated on its first lookup."""

    def __init__(self, program, decoded, per_block: int, cap: int) -> None:
        super().__init__()
        # The columns, not `decoded`: the table lives in `decoded.blocks`,
        # and a reference back would make a cycle only the collector frees.
        self._columns = (decoded.ops, decoded.rds, decoded.rs1s,
                         decoded.rs2s, decoded.imms, decoded.targets)
        self._timing = (decoded.is_mem, decoded.is_control, decoded.is_load,
                        decoded.is_store, decoded.latency, decoded.dest,
                        decoded.sources)
        self._code_base = program.code_base
        self._instruction_bytes = program.instruction_bytes
        self._per_block = per_block
        self._cap = cap
        self._singles: dict = {}
        self._pid = os.getpid()
        ops = decoded.ops
        self.entered = [0] * len(ops)
        self.starts = starts = bytearray(len(ops))
        if 0 <= program.entry < len(ops):
            starts[program.entry] = 1
        for pc, op in enumerate(ops):
            if op == Opcode.HALT or op < 0:
                starts[pc] = 1
            elif decoded.is_control[pc]:
                target = decoded.targets[pc]
                if 0 <= target < len(ops):
                    starts[target] = 1
                if pc + 1 < len(ops):
                    starts[pc + 1] = 1

    def __missing__(self, pc: int):
        function, length = self.single(pc)
        if length and self.starts[pc]:
            length = -1
        self[pc] = entry = (function, length)
        return entry

    def single(self, pc: int):
        """The one-instruction entry of `pc`."""
        entry = self._singles.get(pc)
        if entry is None:
            entry = self._singles[pc] = self._single(pc)
        return entry

    def enter(self, pc: int):
        """Count an entry to the start `pc`; return its block once it has
        been entered :data:`PROMOTE_AFTER` times, else its single."""
        if self._pid != os.getpid():
            # Counts are per process: a forked worker that lives for one
            # task would otherwise compile, for nothing, every block its
            # parent had nearly promoted.
            self._pid = os.getpid()
            self.entered = [0] * len(self.entered)
        entered = self.entered[pc] + 1
        if entered < PROMOTE_AFTER:
            self.entered[pc] = entered
            return self.single(pc)
        body, length = self._emit(pc, self._cap, _literal)
        self[pc] = entry = (_compile(_ENTRY.format("") + "".join(
            f"    {line}\n" for line in body)), length)
        return entry

    def _single(self, pc: int):
        shape = self._shape(pc)
        compiled = _SINGLES.get(shape)
        if compiled is None:
            source, operands, length = self.single_source(pc)
            compiled = _SINGLES[shape] = (_compile(source).__code__,
                                          tuple(operands), length)
        code, names, length = compiled
        values = self._operands(pc)
        function = FunctionType(code, _GLOBALS, "block",
                                (tuple(values[name] for name in names),))
        return function, length

    def single_source(self, pc: int):
        """The source of the single at `pc`, the operands its ``K``
        holds (name to value, in order), and its length."""
        operands: dict = {}

        def operand(value: int, name: str) -> str:
            operands[name] = value
            return name

        body, length = self._emit(pc, 1, operand)
        source = _ENTRY.format(", K") + "".join(
            f"    {line}\n" for line in [f"{', '.join(operands)}, = K",
                                         *body])
        return source, operands, length

    def _shape(self, pc: int) -> tuple:
        """Everything the single at `pc` is compiled from but its
        operands: the opcode, whether it writes a register, whether its
        immediate is zero, its flags and which of its registers
        coincide."""
        ops = self._columns[0]
        if not 0 <= pc < len(ops):
            return ("wild",)
        if ops[pc] == Opcode.HALT:
            return ("halt",)
        is_mem, is_control, is_load, is_store, _, dest, sources = \
            self._timing
        sources = sources[pc]
        destination = dest[pc]
        if destination < 0:
            written = -2
        else:
            written = (sources.index(destination)
                       if destination in sources else -1)
        return (ops[pc], self._columns[1][pc] != 0,
                self._columns[4][pc] == 0, is_mem[pc],
                is_control[pc], is_load[pc], is_store[pc],
                tuple(map(sources.index, sources)), written)

    def _operands(self, pc: int) -> dict:
        """The value of every operand name a single may read."""
        values = {"KP": pc, "KN": pc + 1,
                  "KA": self._code_base + pc * self._instruction_bytes,
                  "KB": pc // self._per_block}
        if 0 <= pc < len(self._columns[0]):
            values.update(("K" + name, value) for name, value
                          in operand_fields(self._columns, pc).items())
            values.update(Kd=self._columns[1][pc], KT=self._columns[5][pc],
                          KL=self._timing[4][pc], Kw=self._timing[5][pc])
            values.update((f"Kr{index}", source) for index, source
                          in enumerate(self._timing[6][pc]))
        return values

    def _emit(self, start: int, cap: int, operand):
        """The body and length of the translation at `start`, cut after
        `cap` instructions; `operand(value, name)` spells each
        per-instruction constant."""
        ops = self._columns[0]
        if not 0 <= start < len(ops):
            # step() raises the wild-pc ValueError.
            return [f"m.pc = {operand(start, 'KP')}",
                    "m.instructions_retired = n", "m.step()"], 0
        if ops[start] == Opcode.HALT:
            here = operand(start, "KP")
            body = [f"m.pc = {here}; m.instructions_retired = n", "m.step()"]
            body += self._front_end(start, 0, False, False, operand)
            # The run's last cycle is one past the HALT's dispatch.
            body += ["v = (pd // DW + 1) * RW", "if pr < v: pr = v",
                     f"return ({here}, pf, pd, pi, pr, nf, cb)"]
            return body, 0
        body: list[str] = []
        registers: dict[int, str] = {}
        ready: dict[int, str] = {}
        written: set[int] = set()
        pc = start
        following = None
        while pc < len(ops) and pc - start < cap:
            if pc > start and self.starts[pc]:
                break
            following = self._instruction(body, registers, ready, written,
                                          pc, pc - start, operand)
            pc += 1
            if following is not None:
                break
        body += [f"rr[{registers[reg]}] = {ready[reg]}"
                 for reg in sorted(written)]
        # A control transfer leaves its fetch block in `cb` (or −1).
        if self._timing[1][pc - 1]:
            fetch_block = "cb"
        else:
            fetch_block = operand((pc - 1) // self._per_block, "KB")
        if following is None:
            following = operand(pc, "KN")
        body.append(f"return ({following}, pf, pd, pi, pr, nf, "
                    f"{fetch_block})")
        return body, pc - start

    def _front_end(self, pc: int, offset: int, is_mem: bool,
                   is_control: bool, operand) -> list[str]:
        """Fetch and dispatch of the instruction at `pc`, the block's
        `offset`-th: into ``pf`` and ``pd``, with its dispatch cycle in
        ``d``."""
        per_block = self._per_block
        fetched = operand(self._code_base + pc * self._instruction_bytes,
                          "KA")
        access = f"w = (nf + ta({fetched}, False, True, nf) - 1) * FW"
        lines = ["pf += 1"]
        if offset == 0:
            # Entered from anywhere: a mispredict resets the fetch block.
            lines += [f"if cb != {operand(pc // per_block, 'KB')}:",
                      f"    {access}", "    if pf < w: pf = w",
                      "elif pf < y: pf = y"]
        elif pc % per_block == 0:
            lines += [access, "if pf < w: pf = w"]
        else:
            lines.append("if pf < y: pf = y")
        lines.append("d = pf // FW + FD")
        slots = [f"rob[k + {offset}]" if offset else "rob[k]", "iq[0]"]
        if is_mem:
            slots.append("lsq[0]")
        if is_control:
            slots.append("cp[0]")
        for slot in slots:
            lines += [f"v = {slot} + 1", "if v > d: d = v"]
        lines += ["pd += 1", "if pd < d * DW: pd = d * DW"]
        return lines

    def _instruction(self, body: list[str], registers: dict, ready: dict,
                     written: set, pc: int, offset: int, operand):
        """Append the lines of the block's `offset`-th instruction; return
        the expression of the next pc if it ends the block, else None."""
        ops, rds, _, _, _, targets = self._columns
        (is_mem_col, is_control_col, is_load_col, is_store_col, latency_col,
         dest_col, sources_col) = self._timing
        op = ops[pc]
        is_mem = is_mem_col[pc]
        is_control = is_control_col[pc]
        here = operand(pc, "KP") if is_control or op < 0 else None
        taken = following = None
        # ---- execute architecturally ------------------------------------
        if op < 0:
            # A poisoned slot: its operands only fit step().
            body += [f"m.pc = {here}; m.instructions_retired = n + {offset}",
                     "s = m.step()",
                     "x = s.mem_address; tk = s.taken; nx = s.next_index"]
            taken, following = "tk", "nx"
        else:
            fields = _Operands(operand_fields(self._columns, pc), operand)
            if is_control:
                lines, condition, taken_pc = transfer_parts(
                    op, fields, operand(targets[pc], "KT"),
                    operand(pc + 1, "KN"))
                body += lines
                if condition is None:
                    taken, following = "True", taken_pc
                else:
                    body += [f"tk = {condition}",
                             f"nx = {taken_pc} if tk else "
                             f"{operand(pc + 1, 'KN')}"]
                    taken, following = "tk", "nx"
            else:
                rd = rds[pc]
                body += execute_lines(op, operand(rd, "Kd") if rd else 0,
                                      fields, "x" if is_mem else None)
        # ---- fetch and dispatch -----------------------------------------
        body += self._front_end(pc, offset, is_mem, is_control, operand)
        # ---- issue ------------------------------------------------------
        body.append("w = pd // DW + 1")
        for index, source in enumerate(sources_col[pc]):
            if source not in ready:
                registers[source] = operand(source, f"Kr{index}")
                ready[source] = f"g{offset}_{index}"
                body.append(f"{ready[source]} = rr[{registers[source]}]")
            body.append(f"if {ready[source]} > w: w = {ready[source]}")
        body += ["pi += 1", "if pi < w * IW: pi = w * IW", "ic = pi // IW",
                 "hr(iq, ic)"]
        # ---- complete ---------------------------------------------------
        complete = f"c{offset}"
        if is_load_col[pc]:
            body.append(f"{complete} = ic + ta(x, False, False, ic)")
        elif is_store_col[pc]:
            # The store leaves the pipe once address and data are ready;
            # the write drains through the hierarchy in the background.
            body += [f"{complete} = ic + 1", f"ta(x, True, False, {complete})"]
        else:
            body.append(f"{complete} = ic + "
                        f"{operand(latency_col[pc], 'KL')}")
        destination = dest_col[pc]
        if destination >= 0:
            if destination not in registers:
                registers[destination] = operand(destination, "Kw")
            ready[destination] = complete
            written.add(destination)
        # ---- control resolution -----------------------------------------
        if is_control:
            body += ["if bh is not None:",
                     f"    m.pc = {following}; "
                     f"m.instructions_retired = n + {offset + 1}",
                     f"    bh({here}, I[{here}])",
                     f"hr(cp, {complete})",
                     f"cb = {operand(pc // self._per_block, 'KB')}",
                     f"if pu({here}, I[{here}], {taken}, {following}):",
                     f"    nf = {complete} + PEN; cb = -1",
                     # Even a correctly predicted taken transfer ends the
                     # current fetch group.
                     "else:" if taken == "True" else f"elif {taken}:",
                     "    nf = pf // FW + 1"]
        # ---- retire -----------------------------------------------------
        slot = f"rob[k + {offset}]" if offset else "rob[k]"
        body += ["pr += 1", f"v = {complete} * RW + RW", "if pr < v: pr = v"]
        if is_store_col[pc]:
            body += ["v = pr // RW", f"{slot} = v", "hr(lsq, v)"]
        else:
            body.append(f"{slot} = pr // RW")
            if is_mem:
                body.append(f"hr(lsq, {complete})")
        return following if (is_control or op < 0) else None


def timing_block_table(program, per_block: int,
                       rob_entries: int) -> TimingBlockTable:
    """The cached :class:`TimingBlockTable` of `program` for `per_block`
    instructions per fetch block and a ROB of `rob_entries`."""
    decoded = predecode_program(program)
    key = ("timing", per_block, min(BLOCK_CAP, rob_entries))
    table = decoded.blocks.get(key)
    if table is None:
        table = decoded.blocks[key] = TimingBlockTable(
            program, decoded, per_block, key[2])
    return table
