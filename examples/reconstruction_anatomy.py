#!/usr/bin/env python3
"""Anatomy of Reverse State Reconstruction (paper Figures 2, 3, 4).

Walks through the three reconstruction mechanisms on tiny hand-traced
inputs, printing each step:

1. Figure 2 — reverse cache-set reconstruction versus normal simulation.
2. Figure 3 — inferring 2-bit counter states from reverse histories.
3. Figure 4 — the reverse return-address-stack counter algorithm.

    python examples/reconstruction_anatomy.py
"""

from repro.cache import Cache, CacheConfig, WritePolicy
from repro.core import default_table, reconstruct_ras_contents
from repro.core import BR_CALL, BR_RET


def show_set(cache: Cache, label: str) -> None:
    lines = cache.state_fingerprint()[0]
    # The line number of address (i+4)*256, with 64-byte lines, is
    # (i+4)*4; invert that to recover the letter.
    names = ["-" if line is None else chr(ord("A") + line // 4 - 4)
             for line in lines]
    print(f"  {label}: MRU -> LRU = {names}")


def figure2() -> None:
    print("Figure 2 — reverse cache reconstruction of one set")
    print("  stale contents B A D C (MRU..LRU); skip-region stream E A F C")

    def fresh():
        cache = Cache(CacheConfig("fig2", 256, 64, 4, WritePolicy.WTNA, 1))
        # Line addresses chosen so line // 4 == letter index + 4.
        for letter in "CDAB":
            cache.access((ord(letter) - ord("A") + 4) * 256)
        return cache

    addr = {c: (ord(c) - ord("A") + 4) * 256 for c in "ABCDEF"}

    forward = fresh()
    for letter in "EAFC":
        forward.access(addr[letter])
    show_set(forward, "normal simulation ")

    reverse = fresh()
    reverse.begin_reconstruction()
    for letter in reversed("EAFC"):
        applied = reverse.reconstruct_reference(addr[letter])
        print(f"    reverse ref {letter}: "
              f"{'applied' if applied else 'ignored (redundant)'}")
    show_set(reverse, "reverse reconstruction")
    match = forward.state_fingerprint() == reverse.state_fingerprint()
    print(f"  states identical: {match}\n")


def figure3() -> None:
    print("Figure 3 — counter inference from reverse branch history")
    table = default_table()
    cases = [
        ("T T T (last three taken)", [True, True, True]),
        ("N N N (last three not taken)", [False, False, False]),
        ("N T T T (pattern deeper in history)", [False, True, True, True]),
        ("T (single outcome)", [True]),
        ("T N (alternating)", [True, False]),
    ]
    names = {0: "strong NT", 1: "weak NT", 2: "weak T", 3: "strong T",
             None: "left stale"}
    for label, reverse_history in cases:
        bits = 0
        for position, taken in enumerate(reverse_history):
            bits |= int(taken) << position
        inference = table.lookup(len(reverse_history), bits)
        kind = "exact" if inference.exact else \
            f"ambiguous {set(inference.possible)}"
        print(f"  {label:36s} -> {names[inference.value]:9s} ({kind})")
    print()


def figure4() -> None:
    print("Figure 4 — reverse RAS reconstruction")
    # Forward call sequence: call@10, call@20, ret, call@30, ret, ret,
    # call@40, call@50  (only the last two frames survive).
    log = [
        (10, 110, True, BR_CALL),
        (20, 120, True, BR_CALL),
        (25, 0, True, BR_RET),
        (30, 130, True, BR_CALL),
        (35, 0, True, BR_RET),
        (36, 0, True, BR_RET),
        (40, 140, True, BR_CALL),
        (50, 150, True, BR_CALL),
    ]
    print("  forward events: push@10 push@20 pop push@30 pop pop "
          "push@40 push@50")
    counter = 0
    for pc, _next, _taken, kind in reversed(log):
        if kind == BR_RET:
            counter += 1
            print(f"    reverse: pop  at {pc:3d} -> counter={counter}")
        else:
            if counter == 0:
                print(f"    reverse: push at {pc:3d} -> counter=0, "
                      f"RAS gets return address {pc + 1}")
            else:
                counter -= 1
                print(f"    reverse: push at {pc:3d} -> cancelled, "
                      f"counter={counter}")
    contents = reconstruct_ras_contents(log, 8)
    print(f"  reconstructed RAS (top first): {contents}\n")


if __name__ == "__main__":
    figure2()
    figure3()
    figure4()
