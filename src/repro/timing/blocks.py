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
:data:`BLOCK_CAP` (or ``rob_entries`` or ``issue_queue_entries``, if
smaller) instructions.

Compiling a block costs far more than running it a few times, and at
short run lengths most code runs only a few times.  So code first runs
as *singles*: one-instruction translations whose operands arrive in a
tuple ``K``.  Singles of one shape (opcode, flags, a zero immediate,
and which of their registers coincide) share one compiled function, so
a single costs a tuple and a function object.  A start entered
:data:`PROMOTE_AFTER` times is translated as a whole block with its
operands as literals.  Singles also step a run to its end inside a
block and from a pc inside a block (where the last run stopped) to the
next start.  The end of the ``measure_after`` ramp cuts no block:
``run`` reads the retire cycle of the ramp's last instruction from the
ROB ring once the block that crosses it returns (a loop stops after
that pass), before any later instruction can take its slot.

The core's pipeline state is

- four bandwidth limiters (fetch, dispatch, issue, retire), each one
  integer ``p = cycle * width + used - 1``: at most `width` events per
  cycle, so ``take(ready)`` is ``p = max(p + 1, ready * width)`` and the
  event's cycle is ``p // width`` (requests arrive in program order, so
  only the current cycle is tracked);
- the ROB, a ring of ``rob_entries`` retire cycles: it frees in program
  order, so the instruction with sequence number `i` may dispatch once
  instruction ``i - rob_entries`` (slot ``i % rob_entries``) retired;
- the issue queue, a ring of ``issue_queue_entries`` issue cycles: the
  issue limiter only grows, so issue cycles never decrease and the slot
  freed first is the oldest one, as in the ROB;
- the LSQ and the branch checkpoints, each a min-heap of release cycles
  with one entry per slot: they free out of order (a load leaves at its
  completion, which is not monotone), so an instruction takes the
  earliest-freed slot (the heap's top) and :func:`heapq.heapreplace`
  puts its own release cycle in its place.

The rings and the heaps start full of −1, a slot free since before
cycle 0.  A block's instructions reach the rings at ``k + j`` and
``q + j`` (``k = n % C - C``, ``q = n % Q - Q``): the cap keeps ``j``
below both sizes, so no index wraps twice.

A block receives its environment ``E``: the machine ``m``, its
registers ``r`` and its memory's word dictionary ``W`` (``restore()``
replaces both, so ``run`` binds them on every call; loads and stores
read and write ``W`` in line, as in the functional blocks), the
program's instructions ``I``, the per-register ready cycles ``rr``, the
rings and heaps, ``hierarchy.timed_access`` (``ta``),
``predictor.predict_and_update`` (``pu``) and
``predictor.conditional`` (``bc``), the L1 hit counts ``hc`` (L1I
first), the L1I's rows and hit latency (``IR``, ``IH``), the L1D's
with its line bytes and set count (``DR``, ``DL``, ``DN``, ``DH``), and
the core's widths, front-end depth,
mispredict penalty and ring sizes.  The scalars travel in the state
tuple ``S = (pc, pf, pd, pi, pr, nf, cb)`` — the four limiters, the next
fetch cycle and the current fetch block — which a block unpacks on
entry and returns, with its successor pc first.  ``n`` is the machine's
retired count at block entry.

``ld r4, 8(r3); bne r4, r0, 10`` at pc 10 (the tenth slot of its fetch
block, line 65536 in L1I set 0) branches back to its own entry, so
its block closes the loop::

    def block(E, S, n, e):
        (m, r, W, I, rr, rob, iq, lsq, cp, ta, pu, bc, hc,
         IR, IH, DR, DL, DN, DH,
         FW, DW, IW, RW, FD, PEN, C, Q) = E
        _, pf, pd, pi, pr, nf, cb = S
        g0_0 = rr[3]
        while True:
            k = n % C - C
            q = n % Q - Q
            x = (r[3] + 8) & 18446744073709551615
            r[4] = W.get(x & 18446744073709551608, 0)
            pf += 1
            if cb != 0:
                if IR[0][0] == 65536:
                    hc[0] += 1
                    w = (nf + IH - 1) * FW
                else:
                    w = (nf + ta(4194344, False, True, nf) - 1) * FW
                if pf < w: pf = w
            elif pf < nf * FW: pf = nf * FW
            d = pf // FW + FD
            ...                 # rob[k], iq[q], lsq[0]; dispatch limiter
            w = pd // DW + 1
            if g0_0 > w: w = g0_0
            pi += 1
            if pi < w * IW: pi = w * IW
            ic = pi // IW
            iq[q] = ic
            s = x // DL
            if DR[s % DN][0] == s:
                hc[1] += 1
                c0 = ic + DH
            else:
                c0 = ic + ta(x, False, False, ic)
            ...                 # retire limiter; rob[k] = pr // RW
            hr(lsq, c0)
            tk = r[4] != r[0]
            nx = 10 if tk else 12
            pf += 1
            ...                 # dispatch, issue (reads c0); iq[q + 1]
            hr(cp, c1)
            cb = 0
            if bc(11, tk, nx):
                nf = c1 + PEN; cb = -1
            elif tk:
                nf = pf // FW + 1
            ...                 # retire; rob[k + 1] = pr // RW
            n += 2
            if not tk or n > e:
                break
        rr[4] = c0
        return (nx, pf, pd, pi, pr, nf, cb), n

The fetch of a block's first instruction, and of each fetch block the
block enters, tests the MRU line of its L1I set, with the set and line
as literals: a hit there costs the L1I's hit latency and changes only that
cache's counters, so the block counts it in ``hc`` instead of calling
``timed_access``; so does a load that hits the MRU line of its L1D set.
``run`` adds the counts to the L1s' statistics when it returns or
raises.  Stores, and everything else, call ``timed_access``.  Only the
first instruction clamps its fetch to the next fetch cycle
(``nf * FW``): ``nf`` holds until the block's transfer, and with a hit
latency of at least one cycle (:class:`~repro.cache.CacheConfig`
enforces it) the first fetch already leaves ``pf`` at least there.  A
conditional branch predicts, counts and trains in one call,
``bc(pc, taken, next_pc)``; the other transfers call ``pu``.

A block whose conditional branch targets its own entry (of at least two
instructions) goes round inside its function while another whole pass
fits before the run's end, and during the ramp only until a pass
crosses it; ``e`` is the last retired count at which it goes round
again.  It returns its state with the new retired count.
Ready cycles stay in locals from pass to pass: a register the block
reads first is loaded once before the loop, and the back edge moves
the register's last ready cycle into that local when the block also
writes it.  A plain block loads the registers it reads first on entry,
and stores every register it writes on exit.

The hierarchy and the predictor see the calls the step-driven loop made,
in the same order and with the same cycles, apart from the MRU hits:
per instruction, the instruction fetch on a fetch-block change, then the
data access, then the prediction.

A table entry is ``(function, length)``.  Length 0 marks a HALT
(``step()``, then fetch and dispatch only; the run's last cycle is one
past its dispatch) and a pc outside the program (its ``step()`` raises
``ValueError``); −1 marks a start still running as singles, and a
length below −1 a self-loop of that many instructions per pass.  A
poisoned slot's functional part is a ``step()`` call.

Tables are cached in ``PredecodedProgram.blocks`` under ``("timing",
L1I line bytes, L1I set count, block cap)``, apart from the functional
tables' keys.  Nothing else is baked in, so one table serves every core
config whose ROB and issue queue both hold at least :data:`BLOCK_CAP`
entries.  Each translation defines its function in a namespace of its
own, so threads sharing one program may translate at once.
"""

from __future__ import annotations

import os
from heapq import heapreplace
from types import FunctionType

from ..functional.blocks import (
    OP_GLOBALS, execute_lines, mru_test, operand_fields, transfer_parts,
)
from ..functional.predecode import predecode_program
from ..isa import Opcode, is_conditional_branch

#: Entries of a start, as singles, before it is translated as a block.
PROMOTE_AFTER = 32

#: Most instructions a timing block executes; a smaller ROB or issue
#: queue cuts it further, so that a block never wraps either ring.
BLOCK_CAP = 32

_ENTRY = ("def block(E, S, n{}):\n"
          "    (m, r, W, I, rr, rob, iq, lsq, cp, ta, pu, bc, hc,\n"
          "     IR, IH, DR, DL, DN, DH,\n"
          "     FW, DW, IW, RW, FD, PEN, C, Q) = E\n"
          "    _, pf, pd, pi, pr, nf, cb = S\n")

#: The ROB's and the issue queue's slots of the block's first
#: instruction, set on every entry (and every pass of a loop).
_RINGS = ["k = n % C - C", "q = n % Q - Q"]

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


class _Registers:
    """Where a block keeps each register's ready cycle: in a local from
    the register's first read (a load from ``rr``, into :attr:`loads`)
    or write until the block stores it back."""

    def __init__(self) -> None:
        #: register -> its spelling (a literal or an operand name)
        self.spelled: dict[int, str] = {}
        #: register -> the local holding its ready cycle now
        self.ready: dict[int, str] = {}
        #: register -> the local its load from ``rr`` filled
        self.loaded: dict[int, str] = {}
        self.written: set[int] = set()
        self.loads: list[str] = []

    def load(self, register: int, spelled: str, local: str) -> None:
        self.spelled[register] = spelled
        self.ready[register] = self.loaded[register] = local
        self.loads.append(f"{local} = rr[{spelled}]")

    def write(self, register: int, spelled: str, local: str) -> None:
        self.spelled.setdefault(register, spelled)
        self.ready[register] = local
        self.written.add(register)


class TimingBlockTable(dict):
    """``pc -> (function, length)`` for one program, one L1I geometry
    (line bytes and set count) and one block cap; a pc is translated on
    its first lookup."""

    def __init__(self, program, decoded, line_bytes: int, sets: int,
                 cap: int) -> None:
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
        self._per_block = max(1, line_bytes // program.instruction_bytes)
        self._line_bytes = line_bytes
        self._sets = sets
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
        self[pc] = entry = (_compile(
            _ENTRY.format(", e" if length < 0 else "")
            + "".join(f"    {line}\n" for line in body)), length)
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
        address = self._code_base + pc * self._instruction_bytes
        values = {"KP": pc, "KN": pc + 1, "KA": address,
                  "KB": pc // self._per_block,
                  "Kset": address // self._line_bytes % self._sets,
                  "Kline": address // self._line_bytes}
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
        per-instruction constant.  A self-loop's length is negative."""
        ops = self._columns[0]
        if not 0 <= start < len(ops):
            # step() raises the wild-pc ValueError.
            return [f"m.pc = {operand(start, 'KP')}",
                    "m.instructions_retired = n", "m.step()"], 0
        if ops[start] == Opcode.HALT:
            here = operand(start, "KP")
            body = [*_RINGS,
                    f"m.pc = {here}; m.instructions_retired = n", "m.step()"]
            body += self._front_end(start, 0, False, False, operand)
            # The run's last cycle is one past the HALT's dispatch.
            body += ["v = (pd // DW + 1) * RW", "if pr < v: pr = v",
                     f"return ({here}, pf, pd, pi, pr, nf, cb)"]
            return body, 0
        end = self._end(start, cap)
        last = end - 1
        length = end - start
        # A branch back to the entry closes a loop.  (A one-instruction
        # self-loop, a branch to itself, would read as a start still
        # running as singles.)
        loops = (length > 1 and ops[last] >= 0
                 and is_conditional_branch(ops[last])
                 and self._columns[5][last] == start)
        registers = _Registers()
        body: list[str] = []
        for pc in range(start, end):
            following = self._instruction(body, registers, pc, pc - start,
                                          operand)
        stores = [f"rr[{registers.spelled[reg]}] = {registers.ready[reg]}"
                  for reg in sorted(registers.written)]
        if loops:
            # Go round while another whole pass fits, that is while `n`
            # stays within `e`.  A register's ready cycle stays in its
            # local from pass to pass: the loads of the first pass come
            # before the loop, and the back edge moves each written
            # register's last value into the local its load filled.
            carried = [f"{registers.loaded[reg]} = {registers.ready[reg]}"
                       for reg in sorted(registers.written)
                       if reg in registers.loaded]
            return [*registers.loads, "while True:",
                    *(f"    {line}" for line in [
                        *_RINGS, *body, f"n += {length}",
                        "if not tk or n > e:", "    break", *carried]),
                    *stores, "return (nx, pf, pd, pi, pr, nf, cb), n"], \
                -length
        # A control transfer leaves its fetch block in `cb` (or −1).
        if self._timing[1][last]:
            fetch_block = "cb"
        else:
            fetch_block = operand(last // self._per_block, "KB")
        if following is None:
            following = operand(end, "KN")
        return [*_RINGS, *registers.loads, *body, *stores,
                f"return ({following}, pf, pd, pi, pr, nf, {fetch_block})"], \
            length

    def _end(self, start: int, cap: int) -> int:
        """The pc after the last instruction of the block at `start`: it
        runs through its first control transfer (or poisoned slot), and
        ends early before the next start or after `cap` instructions."""
        ops, is_control = self._columns[0], self._timing[1]
        pc = start
        while pc < len(ops) and pc - start < cap:
            if pc > start and self.starts[pc]:
                break
            pc += 1
            if is_control[pc - 1] or ops[pc - 1] < 0:
                break
        return pc

    def _fetch(self, pc: int, operand) -> list[str]:
        """The instruction fetch of the fetch block `pc` starts, into
        ``w``: an L1I hit on the MRU line of its set (both literals)
        adds no bubble."""
        address = self._code_base + pc * self._instruction_bytes
        line_bytes, sets = self._line_bytes, self._sets
        return mru_test(
            "I", operand(address // line_bytes % sets, "Kset"),
            operand(address // line_bytes, "Kline"),
            ["w = (nf + IH - 1) * FW"],
            [f"w = (nf + ta({operand(address, 'KA')}, False, True, nf) - 1)"
             " * FW"])

    def _front_end(self, pc: int, offset: int, is_mem: bool,
                   is_control: bool, operand) -> list[str]:
        """Fetch and dispatch of the instruction at `pc`, the block's
        `offset`-th: into ``pf`` and ``pd``, with its dispatch cycle in
        ``d``."""
        per_block = self._per_block
        lines = ["pf += 1"]
        if offset == 0:
            # Entered from anywhere: a mispredict resets the fetch block.
            # With an L1I hit latency of at least one cycle, `pf` is then
            # at least ``nf * FW``, and `nf` holds to the block's end.
            lines += [f"if cb != {operand(pc // per_block, 'KB')}:",
                      *(f"    {line}" for line in self._fetch(pc, operand)),
                      "    if pf < w: pf = w",
                      "elif pf < nf * FW: pf = nf * FW"]
        elif pc % per_block == 0:
            lines += [*self._fetch(pc, operand), "if pf < w: pf = w"]
        lines.append("d = pf // FW + FD")
        slots = [f"rob[k + {offset}]" if offset else "rob[k]",
                 f"iq[q + {offset}]" if offset else "iq[q]"]
        if is_mem:
            slots.append("lsq[0]")
        if is_control:
            slots.append("cp[0]")
        for slot in slots:
            lines += [f"v = {slot}", "if v >= d: d = v + 1"]
        lines += ["pd += 1", "if pd < d * DW: pd = d * DW"]
        return lines

    def _instruction(self, body: list[str], registers: "_Registers",
                     pc: int, offset: int, operand):
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
        conditional = False
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
                    conditional = True
            else:
                rd = rds[pc]
                body += execute_lines(op, operand(rd, "Kd") if rd else 0,
                                      fields, "x" if is_mem else None)
        # ---- fetch and dispatch -----------------------------------------
        body += self._front_end(pc, offset, is_mem, is_control, operand)
        # ---- issue ------------------------------------------------------
        body.append("w = pd // DW + 1")
        ready = registers.ready
        for index, source in enumerate(sources_col[pc]):
            if source not in ready:
                registers.load(source, operand(source, f"Kr{index}"),
                               f"g{offset}_{index}")
            body.append(f"if {ready[source]} > w: w = {ready[source]}")
        # Issue cycles never decrease, so the issue queue frees in
        # program order: a ring, like the ROB.
        body += ["pi += 1", "if pi < w * IW: pi = w * IW", "ic = pi // IW",
                 f"iq[q + {offset}] = ic" if offset else "iq[q] = ic"]
        # ---- complete ---------------------------------------------------
        complete = f"c{offset}"
        if is_load_col[pc]:
            body += ["s = x // DL",
                     *mru_test("D", "s % DN", "s", [f"{complete} = ic + DH"],
                               [f"{complete} = ic + ta(x, False, False, ic)"])]
        elif is_store_col[pc]:
            # The store leaves the pipe once address and data are ready;
            # the write drains through the hierarchy in the background.
            body += [f"{complete} = ic + 1", f"ta(x, True, False, {complete})"]
        else:
            body.append(f"{complete} = ic + "
                        f"{operand(latency_col[pc], 'KL')}")
        destination = dest_col[pc]
        if destination >= 0:
            registers.write(destination, operand(destination, "Kw"), complete)
        # ---- control resolution -----------------------------------------
        if is_control:
            predict = (f"bc({here}, {taken}, {following})" if conditional
                       else f"pu({here}, I[{here}], {taken}, {following})")
            body += [f"hr(cp, {complete})",
                     f"cb = {operand(pc // self._per_block, 'KB')}",
                     f"if {predict}:",
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


def timing_block_table(program, l1i, core) -> TimingBlockTable:
    """The cached :class:`TimingBlockTable` of `program` for the L1I
    config `l1i` (its line bytes also set the fetch-block size) and the
    core config `core`, whose ROB and issue queue may cut the block
    cap."""
    decoded = predecode_program(program)
    key = ("timing", l1i.line_bytes, l1i.num_sets,
           min(BLOCK_CAP, core.rob_entries, core.issue_queue_entries))
    table = decoded.blocks.get(key)
    if table is None:
        table = decoded.blocks[key] = TimingBlockTable(
            program, decoded, *key[1:])
    return table
