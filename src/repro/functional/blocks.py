"""Block translation: the bulk-execution engine's compiled blocks.

:meth:`~repro.functional.machine.FunctionalMachine.run` executes
a program one *block* at a time.  A block starts at an entry pc and runs
through its first control transfer.  It ends early before a HALT or a
poisoned predecode slot (both left to ``step()``), at the end of the
program, or after :data:`BLOCK_CAP` instructions.  Each block is
translated once into a Python function whose operands are integer
constants from the predecoded columns.  ``addi r3, r1, 5; load r4,
8(r3); bne r3, r4, 5`` at pc 10, with callable mem, branch and ifetch
hooks (16 instructions per ifetch block), becomes::

    def block(m, r, W, h, n, lf):
        mh, bh, ih = h
        if lf != 0:
            ih(4194344)
        r[3] = (r[1] + 5) & 18446744073709551615
        x = (r[3] + 8) & 18446744073709551615
        r[4] = W.get(x & 18446744073709551608, 0)
        m.pc = 12; m.instructions_retired = n + 2
        mh(11, 12, x, False)
        if r[3] != r[4]:
            m.pc = 5; m.instructions_retired = n + 3
            bh(12, 5, I[12], True)
            return 5
        m.pc = 13; m.instructions_retired = n + 3
        bh(12, 13, I[12], False)
        return 13

Everything a call may change arrives as an argument: the machine ``m``,
its registers ``r`` and its memory's word dictionary ``W``
(``Memory._words``; ``restore()`` replaces both, so ``run`` binds them
on every call), the hooks ``h``, ``n``, the retired count at block
entry, and ``lf``, the ifetch block fetched last (the block reports its
entry fetch unless it starts in that block).  Loads and stores read and
write ``W`` in line, at the address masked to its 8-byte word.  Before
every mem or branch hook call the block writes the machine's ``pc`` and
``instructions_retired``, so a hook sees the state ``step()`` would
leave.  Signed comparisons flip the sign bit of both 64-bit register
values instead of calling :func:`to_signed`.

A consumer that needs neither a frame per event nor that state hands
``run`` an :class:`Emitter` beside its callables.  The skip log
(:mod:`repro.core.compaction`) appends to its columns, with the branch
code ``kind << 1 | taken`` a constant::

        a, k, p, t, c = h
        if lf != 0:
            a(4194344); k(2)
        ...
        r[4] = W.get(x & 18446744073709551608, 0)
        a(x); k(0)
        if r[3] != r[4]:
            p(12); t(5); c(1)
            return 5
        p(12); t(13); c(0)
        return 13

Functional warming (:func:`repro.warmup.base.warming_hooks`) tests a
read or ifetch against the MRU line of its L1 set (rows ``DR``, line
bytes ``DL`` and set count ``DN`` for the L1D; ``I*`` for the L1I),
counts a hit in ``hc`` and calls ``warm_access`` for anything else.  It
trains a conditional branch's Gshare counter (PHT ``GP``, its counters
``GC`` and masks ``GM``/``GH``) and, taken, its BTB entry (tags ``BT``,
targets ``BX``) in line, with the slot a constant, and counts the
updates; another transfer calls ``update``.  A store calls
``warm_access`` unless, under a write-through L1D over a write-back L2
(rows ``LR``, dirty lines ``LD``), its line is MRU in both sets::

        wa, up, hc, IR, IL, IN, DR, DL, DN, LR, LL, LN, LD, GP, GC, GM, \
            GH, BT, BX = h
        if lf != 0:
            s = 4194344 // IL
            if IR[s % IN][0] == s:
                hc[0] += 1
            else:
                wa(4194344, False, True)
        ...
        r[4] = W.get(x & 18446744073709551608, 0)
        s = x // DL
        if DR[s % DN][0] == s:
            hc[1] += 1
        else:
            wa(x, False, False)
        if r[3] != r[4]:
            g = GP.history
            j = (12 ^ g) & GM
            c = GC[j]
            if c < 3: GC[j] = c + 1
            GP.history = (g << 1 | 1) & GH
            BT[12] = 12; BX[12] = 5
            hc[3] += 1; hc[4] += 1
            return 5
        g = GP.history
        j = (12 ^ g) & GM
        c = GC[j]
        if c > 0: GC[j] = c - 1
        GP.history = (g << 1) & GH
        hc[3] += 1
        return 13

A block whose conditional branch targets its own entry closes the loop
inside its function.  Its table length is negative, and ``run`` calls
it only when a whole pass fits, with ``e``, the last retired count at
which another pass still fits.  It goes round while ``n`` stays within
``e``, and returns the next pc with the retired count.  With
``bne r3, r4, 10`` and the skip log::

    def block(m, r, W, h, n, lf, e):
        a, k, p, t, c = h
        if lf != 0:
            a(4194344); k(2)
        while True:
            r[3] = (r[1] + 5) & 18446744073709551615
            x = (r[3] + 8) & 18446744073709551615
            r[4] = W.get(x & 18446744073709551608, 0)
            a(x); k(0)
            if r[3] != r[4]:
                p(12); t(10); c(1)
                n += 3
                if n <= e:
                    continue
                return 10, n
            p(12); t(13); c(0)
            return 13, n + 3

Events stay in program order, and a callable hook still sees ``pc`` and
``instructions_retired`` as ``step()`` leaves them, since ``n`` moves
on with each pass.  When a pass ends in another ifetch block than its
entry's, the back edge fetches the entry again before ``continue``.

What the emitted code counts instead of calling, :meth:`Emitter.fold`
settles when ``run`` returns or raises.

The op emitters (:func:`operand_fields`, :func:`execute_lines`,
:func:`transfer_parts`) also write the functional part of the timing
core's blocks (:mod:`repro.timing.blocks`).

Translations are cached per program, per emitter kind and per hook
signature (which hooks are present, and the ifetch block size in
instructions) in ``PredecodedProgram.blocks``, so callable hooks never
run a block compiled for an emitter.  An absent hook costs nothing, and
the ifetch block crossings inside a block are emitted inline.  Each
translation defines its function in a namespace of its own, so threads
sharing one program may translate at once.
"""

from __future__ import annotations

from ..isa import LINK_REGISTER, Opcode
from .predecode import predecode_program

#: Most instructions one translated block executes.
BLOCK_CAP = 64

_MASK64 = (1 << 64) - 1
_SIGN_BIT = 1 << 63


def to_signed(value: int) -> int:
    """Interpret a 64-bit unsigned value as two's-complement signed."""
    return value - (1 << 64) if value & _SIGN_BIT else value


def divide_signed(dividend: int, divisor: int) -> int:
    """Truncating signed 64-bit division over unsigned register fields.

    Both operands are interpreted as two's complement; the quotient
    truncates toward zero (C/RISC semantics, not Python floor) and wraps
    into the unsigned field, so INT64_MIN / −1 yields INT64_MIN.
    Division by zero returns 0 (the ISA's defined result).
    """
    a = to_signed(dividend)
    b = to_signed(divisor)
    if b == 0:
        return 0
    quotient = a // b
    if quotient < 0 and quotient * b != a:
        quotient += 1  # floor -> truncation for mixed-sign inexact results
    return quotient & _MASK64


#: ``r[a] + i`` wrapped to 64 bits: an ADDI's value and a LOAD/STORE's
#: effective address.  A zero immediate drops the add and the mask
#: ``step()`` applies: a register value already lies in ``[0, 2**64)``.
_BASE_PLUS_IMM = ("(r[{a}] + {i}) & {M}", "r[{a}]")

#: The byte address of the 8-byte word a LOAD/STORE at a 64-bit address
#: reads or writes, the key of ``Memory._words`` (a positive mask, since
#: ``& -8`` takes Python's slower negative-operand path).
_WORD_MASK = _MASK64 & ~7

#: The word of an effective address that no hook needs whole, with the
#: masks of ``_BASE_PLUS_IMM`` and ``_WORD_MASK`` folded into one.
_WORD_ADDRESS = (f"(r[{{a}}] + {{i}}) & {_WORD_MASK}",
                 f"r[{{a}}] & {_WORD_MASK}")

#: The value a register-writing ALU op assigns, over source registers
#: ``a``/``b`` and the immediate ``i`` (``u`` masked to 64 bits, ``sh``
#: to a shift amount, ``s`` biased by the sign bit).
_ALU = {
    Opcode.ADD: "(r[{a}] + r[{b}]) & {M}",
    Opcode.LI: "{u}",
    Opcode.SUB: "(r[{a}] - r[{b}]) & {M}",
    Opcode.MUL: "(r[{a}] * r[{b}]) & {M}",
    Opcode.DIV: "div(r[{a}], r[{b}])",
    Opcode.AND: "r[{a}] & r[{b}]",
    Opcode.OR: "r[{a}] | r[{b}]",
    Opcode.XOR: "r[{a}] ^ r[{b}]",
    Opcode.SLL: "(r[{a}] << (r[{b}] & 63)) & {M}",
    Opcode.SRL: "r[{a}] >> (r[{b}] & 63)",
    Opcode.SLT: "1 if (r[{a}] ^ {S}) < (r[{b}] ^ {S}) else 0",
    Opcode.ANDI: "r[{a}] & {u}",
    Opcode.ORI: "r[{a}] | {u}",
    Opcode.XORI: "r[{a}] ^ {u}",
    Opcode.SLTI: "1 if (r[{a}] ^ {S}) < {s} else 0",
    Opcode.SLLI: "(r[{a}] << {sh}) & {M}",
    Opcode.SRLI: "r[{a}] >> {sh}",
}

_BRANCH = {
    Opcode.BEQ: "r[{a}] == r[{b}]",
    Opcode.BNE: "r[{a}] != r[{b}]",
    Opcode.BLT: "(r[{a}] ^ {S}) < (r[{b}] ^ {S})",
    Opcode.BGE: "(r[{a}] ^ {S}) >= (r[{b}] ^ {S})",
}

#: Where an indirect transfer reads its next pc.
_INDIRECT = {
    Opcode.JR: "r[{a}]",
    Opcode.CALLR: "r[{a}]",
    Opcode.RET: f"r[{LINK_REGISTER}]",
}

_CONTROL = frozenset({*_BRANCH, *_INDIRECT, Opcode.JMP, Opcode.CALL})

#: The entry of a pc no block can start at: HALT, a poisoned slot, or a
#: pc outside the program.
_NO_BLOCK = (None, 0, -1)


#: The globals the op emitters' lines call.
OP_GLOBALS = {"div": divide_signed}


def operand_fields(columns, pc: int) -> dict:
    """The format fields of the op emitters for the instruction at `pc`.

    `columns` is ``(ops, rds, rs1s, rs2s, imms, targets)``: source
    registers ``a``/``b``, the immediate ``i`` (``u`` masked to 64 bits,
    ``sh`` to a shift amount, ``s`` biased by the sign bit), the masks
    ``M``/``S``, and ``Z``, whether the immediate is zero (which changes
    the lines :func:`execute_lines` emits, not only their operands).
    """
    _, _, rs1s, rs2s, imms, _ = columns
    imm = imms[pc]
    return dict(a=rs1s[pc], b=rs2s[pc], i=imm, u=imm & _MASK64,
                sh=imm & 63, s=imm + _SIGN_BIT, M=_MASK64, S=_SIGN_BIT,
                Z=imm == 0)


def execute_lines(op: int, rd: int, fields: dict,
                  address: str | None = None) -> list[str]:
    """Lines that execute one ALU or memory op (nothing for NOP).

    A LOAD/STORE reads or writes the memory's word dictionary ``W``
    (``Memory._words``) in line.  It first binds its effective address
    to the variable `address` when one is named, so a hook or timed
    access can reuse it.  A store writes the register unmasked: register
    values lie in ``[0, 2**64)``, as the unmasked ALU ops assume, so
    ``Memory.store``'s 64-bit wrap changes nothing.
    """
    if op == Opcode.ADDI or op in _ALU:
        template = (_BASE_PLUS_IMM[fields["Z"]] if op == Opcode.ADDI
                    else _ALU[op])
        return [f"r[{rd}] = " + template.format_map(fields)] if rd else []
    if op != Opcode.LOAD and op != Opcode.STORE:
        return []
    lines = []
    if address is None:
        word = _WORD_ADDRESS[fields["Z"]].format_map(fields)
    else:
        lines.append(
            f"{address} = " + _BASE_PLUS_IMM[fields["Z"]].format_map(fields))
        word = f"{address} & {_WORD_MASK}"
    if op == Opcode.STORE:
        lines.append(f"W[{word}] = r[{fields['b']}]")
    elif rd:
        lines.append(f"r[{rd}] = W.get({word}, 0)")
    return lines


def transfer_parts(op: int, fields: dict, target, fall_through):
    """How a control transfer executes: ``(lines, condition, taken_pc)``.

    `target` and `fall_through` are the expressions of its direct target
    and of the pc after it.  `lines` run first (the link write, then the
    indirect target bound to ``x``); `condition` is the taken test of a
    conditional branch (None for a transfer that is always taken);
    `taken_pc` is the expression of the pc it transfers to when taken.
    """
    if op in _BRANCH:
        return [], _BRANCH[op].format_map(fields), str(target)
    lines = []
    if op == Opcode.CALL or op == Opcode.CALLR:
        lines.append(f"r[{LINK_REGISTER}] = {fall_through}")
    if op in _INDIRECT:
        # After the link write: CALLR through the link register jumps
        # to the new link value, as in step().
        lines.append(f"x = {_INDIRECT[op].format_map(fields)}")
        return lines, None, "x"
    return lines, None, str(target)


def mru_test(cache: str, set_index: str, line: str, hit: list[str],
             miss: list[str]) -> list[str]:
    """Lines that test a read of `line` against the MRU line of set
    `set_index` of the L1 `cache` (``"I"`` or ``"D"``), over its bound
    rows ``{cache}R``.  Such a hit changes only that L1's ``hits``: count
    it in ``hc`` (L1I first) and run `hit`; run `miss` otherwise."""
    return [f"if {cache}R[{set_index}][0] == {line}:",
            f"    hc[{int(cache == 'D')}] += 1", *_indent(hit),
            "else:", *_indent(miss)]


class Emitter:
    """What a hook consumer's events compile to in translated blocks.

    This base class compiles them to calls of the callable hooks
    ``names = (mem_hook, branch_hook, ifetch_hook)``, after writing the
    machine's ``pc`` and ``instructions_retired``.  A subclass compiles
    them to code of its own over its bound :attr:`names`, which each
    block unpacks from ``h`` into :attr:`params`.  Tables are cached per
    :attr:`kind`, so the code depends on the class, never on an instance.
    """

    kind = "hooks"
    params = ("mh", "bh", "ih")

    def __init__(self, *names) -> None:
        self.names = names

    @staticmethod
    def memory(pc: int, retired: int, address: str, ref: int) -> list[str]:
        """Lines recording a reference to the expression `address`: `ref`
        is 0 for a load, 1 for a store and 2 for an ifetch (the ``REF_*``
        codes of :mod:`repro.core.source`)."""
        if ref == 2:
            return [f"ih({address})"]
        return [f"m.pc = {pc + 1}; m.instructions_retired = n + {retired}",
                f"mh({pc}, {pc + 1}, {address}, {ref == 1})"]

    @staticmethod
    def transfer(pc: int, next_pc, inst, taken: bool,
                 retired: int) -> list[str]:
        """Lines recording the transfer `inst` at `pc` to the expression
        `next_pc`."""
        return [f"m.pc = {next_pc}; m.instructions_retired = n + {retired}",
                f"bh({pc}, {next_pc}, I[{pc}], {taken})"]

    def fold(self) -> None:
        """Settle what the blocks counted instead of calling a hook;
        ``run`` calls it before it returns or raises.  Nothing here."""


def _indent(lines: list[str]) -> list[str]:
    return [f"    {line}" for line in lines]


class BlockTable(dict):
    """``pc -> (function, length, last ifetch block)`` for one program,
    one :class:`Emitter` class and one hook signature; a pc is
    translated on its first lookup.

    ``length`` 0 marks a pc with no block (:data:`_NO_BLOCK`), and a
    negative ``length`` a self-loop of ``-length`` instructions per pass.
    """

    def __init__(self, program, decoded, emitter: type, mem_hooked: bool,
                 branch_hooked: bool, per_block: int) -> None:
        super().__init__()
        # The columns, not `decoded`: the table lives in `decoded.blocks`,
        # and a reference back would make a cycle only the collector frees.
        self._columns = (decoded.ops, decoded.rds, decoded.rs1s,
                         decoded.rs2s, decoded.imms, decoded.targets)
        self._instructions = program.instructions
        self._code_base = program.code_base
        self._instruction_bytes = program.instruction_bytes
        self._emitter = emitter
        self._mem_hooked = mem_hooked
        self._branch_hooked = branch_hooked
        self._per_block = per_block
        self._globals = {**OP_GLOBALS, "I": program.instructions}

    def __missing__(self, pc: int):
        self[pc] = entry = self._translate(pc)
        return entry

    def _fetch(self, pc: int) -> list[str]:
        """Lines recording the fetch of the instruction at `pc`."""
        address = self._code_base + pc * self._instruction_bytes
        return self._emitter.memory(pc, 0, str(address), 2)

    def _translate(self, start: int):
        columns = self._columns
        ops, rds, _, _, _, targets = columns
        per_block = self._per_block
        entry: list[str] = []
        if self._mem_hooked or self._branch_hooked or per_block:
            entry.append(", ".join(self._emitter.params) + " = h")
        if per_block:
            # The entry fetch, unless the block fetched last ended in this
            # fetch block (``lf``).
            entry += [f"if lf != {start // per_block}:",
                      *_indent(self._fetch(start))]
        body: list[str] = []
        pc = start
        transfer = loops = False
        while 0 <= pc < len(ops) and pc - start < BLOCK_CAP:
            op = ops[pc]
            if op == Opcode.HALT or op < 0:
                break
            if per_block and pc > start and pc % per_block == 0:
                body += self._fetch(pc)
            fields = operand_fields(columns, pc)
            retired = pc - start + 1
            if op in _CONTROL:
                loops = op in _BRANCH and targets[pc] == start
                body += self._transfer(op, pc, fields, targets[pc], retired,
                                       start if loops else None)
                transfer = True
                pc += 1
                break
            mem_hooked = self._mem_hooked and (
                op == Opcode.LOAD or op == Opcode.STORE)
            body += execute_lines(op, rds[pc], fields,
                                  "x" if mem_hooked else None)
            if mem_hooked:
                body += self._emitter.memory(pc, retired, "x",
                                             int(op == Opcode.STORE))
            pc += 1
        if pc == start:
            return _NO_BLOCK
        if not transfer:
            body.append(f"return {pc}")
        # A self-loop runs its entry lines once and its body per pass.
        indent = "        " if loops else "    "
        source = "".join([
            f"def block(m, r, W, h, n, lf{', e' if loops else ''}):\n",
            *(f"    {line}\n" for line in entry),
            "    while True:\n" if loops else "",
            *(f"{indent}{line}\n" for line in body)])
        namespace: dict = {}
        exec(compile(source, "<translated block>", "exec"), self._globals,
             namespace)
        last_block = (pc - 1) // per_block if per_block else -1
        length = pc - start
        return namespace["block"], -length if loops else length, last_block

    def _transfer(self, op: int, pc: int, fields: dict, target: int,
                  retired: int, loop: "int | None") -> list[str]:
        """Lines that execute the control transfer at `pc` and return the
        next pc, recording it first when a branch hook is present.

        A conditional branch back to the block's entry `loop` closes the
        loop: the taken side adds the pass to ``n`` and goes round again
        (fetching the entry first when the pass ended in another fetch
        block) unless ``n`` is past ``e``, the last count at which a whole
        pass still fits; both exits return the next pc and the count.
        """
        inst = self._instructions[pc]

        def leave(next_pc, taken: bool) -> list[str]:
            if loop is None:
                lines = [f"return {next_pc}"]
            elif taken:
                lines = [f"n += {retired}", "if n <= e:",
                         *_indent(self._again(loop, pc)),
                         f"return {next_pc}, n"]
            else:
                lines = [f"return {next_pc}, n + {retired}"]
            if self._branch_hooked:
                lines[:0] = self._emitter.transfer(pc, next_pc, inst, taken,
                                                   retired)
            return lines

        lines, condition, taken_pc = transfer_parts(op, fields, target,
                                                    pc + 1)
        if condition is None:
            return lines + leave(taken_pc, True)
        return [f"if {condition}:", *_indent(leave(taken_pc, True)),
                *leave(pc + 1, False)]

    def _again(self, start: int, pc: int) -> list[str]:
        """The back edge of a loop from `pc` to its entry `start`."""
        per_block = self._per_block
        lines = ["continue"]
        if per_block and start // per_block != pc // per_block:
            lines[:0] = self._fetch(start)
        return lines


def block_table(program, emitter: type, mem_hooked: bool,
                branch_hooked: bool, per_block: int) -> BlockTable:
    """The cached :class:`BlockTable` of `program` for one emitter class
    and one hook signature (`per_block` 0 when there is no ifetch
    hook)."""
    decoded = predecode_program(program)
    key = (emitter.kind, mem_hooked, branch_hooked, per_block)
    table = decoded.blocks.get(key)
    if table is None:
        table = decoded.blocks[key] = BlockTable(
            program, decoded, emitter, mem_hooked, branch_hooked, per_block)
    return table
