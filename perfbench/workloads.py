"""Seeded inputs for the three benchmark workloads, with their references.

Every ISA op carries C source and the exit status a plain-Python mirror
of the same kernel computes, so the expected value never comes from the
compiler under test. Every op is a pure function of ``(seed, index)``:
the same seed gives the same op stream, and no two ops of one stream
share a source (the share of repeated inputs is 0).

Op shapes follow a fixed schedule and the seed picks the data and
constants, so the shape mix of a run is the same on every seed and a
run's medians move with the simulator, not with the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# 32-bit C arithmetic for the mirrors
# ---------------------------------------------------------------------------


def i32(x: int) -> int:
    """Wrap to a signed 32-bit int, as the simulated machine does."""
    x &= 0xFFFFFFFF
    return x - (1 << 32) if x & 0x80000000 else x


def cdiv(a: int, b: int) -> int:
    """C division: truncates toward zero."""
    q = abs(a) // abs(b)
    return i32(q if (a < 0) == (b < 0) else -q)


def cmod(a: int, b: int) -> int:
    """C remainder: takes the sign of the dividend."""
    return i32(a - cdiv(a, b) * b)


@dataclass(frozen=True)
class IsaOp:
    """One C program and its independently computed exit status."""
    label: str
    source: str
    expected: int
    working_set_bytes: int


def _rng(seed: int, index: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}:{index}")


# ---------------------------------------------------------------------------
# Loop kernels (families of examples/c: nested sum, stride copy, sort)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kernel:
    """One C function of no arguments and the value the mirror returns."""
    label: str
    function: str
    value: int
    working_set_bytes: int


def nested_sum(name: str, n: int, passes: int, mul: int, add: int,
               k: int) -> Kernel:
    function = f"""int {name}() {{
    int a[{n}];
    for (int i = 0; i < {n}; i = i + 1) {{
        a[i] = (i * {mul} + {add}) % 97;
    }}
    int total = 0;
    for (int p = 0; p < {passes}; p = p + 1) {{
        for (int i = 0; i < {n}; i = i + 1) {{
            total = total + a[i] * (p + {k});
        }}
        total = total % 65521;
    }}
    return total % 251;
}}
"""
    a = [cmod(i * mul + add, 97) for i in range(n)]
    total = 0
    for p in range(passes):
        scale = p + k
        for v in a:
            total = i32(total + v * scale)
        total = cmod(total, 65521)
    return Kernel(f"sum/n{n}x{passes}", function, cmod(total, 251), 4 * n)


def stride_copy(name: str, n: int, passes: int, stride: int, mul: int,
                add: int) -> Kernel:
    function = f"""int {name}() {{
    int src[{n}];
    int dst[{n}];
    for (int i = 0; i < {n}; i = i + 1) {{
        src[i] = i * {mul} + {add};
        dst[i] = 0;
    }}
    int sum = 0;
    for (int p = 0; p < {passes}; p = p + 1) {{
        for (int i = p % {stride}; i < {n}; i = i + {stride}) {{
            dst[i] = src[i] + p;
        }}
        sum = (sum + dst[(p * 17) % {n}]) % 65521;
    }}
    return sum % 256;
}}
"""
    src = [i32(i * mul + add) for i in range(n)]
    dst = [0] * n
    total = 0
    for p in range(passes):
        for i in range(p % stride, n, stride):
            dst[i] = i32(src[i] + p)
        total = cmod(total + dst[(p * 17) % n], 65521)
    return Kernel(f"copy/n{n}s{stride}x{passes}", function,
                  cmod(total, 256), 8 * n)


def window_sort(name: str, n: int, passes: int, window: int, gap: int,
                mul: int) -> Kernel:
    """Descending insertion sort of ``window``-int slices ``gap`` apart.

    Each slice starts in descending order (the worst case of
    examples/c/insertion_sort.c) with seeded jitter, so the inner while
    shifts almost every prefix. Slices keep the quadratic run bounded,
    and spacing them ``gap`` ints apart bounds it on the largest arrays,
    while the fill loop still sweeps the whole working set.
    """
    function = f"""int {name}() {{
    int a[{n}];
    int check = 0;
    for (int p = 0; p < {passes}; p = p + 1) {{
        for (int i = 0; i < {n}; i = i + 1) {{
            a[i] = ({n} - i) * 4 + (i * {mul} + p) % 3;
        }}
        for (int w = 0; w < {n}; w = w + {gap}) {{
            for (int i = w + 1; i < w + {window}; i = i + 1) {{
                int key = a[i];
                int j = i - 1;
                while (j >= w && a[j] > key) {{
                    a[j + 1] = a[j];
                    j = j - 1;
                }}
                a[j + 1] = key;
            }}
        }}
        check = (check + a[(p * 7) % {n}] * (p + 1)) % 65521;
    }}
    return check % 256;
}}
"""
    check = 0
    for p in range(passes):
        a = [(n - i) * 4 + cmod(i * mul + p, 3) for i in range(n)]
        for w in range(0, n, gap):
            a[w:w + window] = sorted(a[w:w + window])
        check = cmod(check + a[(p * 7) % n] * (p + 1), 65521)
    return Kernel(f"sort/n{n}w{window}g{gap}x{passes}", function,
                  cmod(check, 256), 4 * n)


def program(kernels: list[Kernel]) -> IsaOp:
    """``main`` calls each kernel once and returns their sum mod 256."""
    calls = "".join(f"    s = s + k{i}();\n" for i in range(len(kernels)))
    source = ("".join(k.function for k in kernels)
              + f"int main() {{\n    int s = 0;\n{calls}"
              "    return s % 256;\n}\n")
    expected = cmod(sum(k.value for k in kernels), 256)
    return IsaOp("+".join(k.label for k in kernels), source, expected,
                 max(k.working_set_bytes for k in kernels))


FAMILIES = ("sum", "copy", "sort")
#: The smallest sort window, the one of examples/c/insertion_sort.c.
WINDOW = 4


def kernel(family: str, name: str, rng: random.Random, n: int,
           mul: int) -> Kernel:
    """One pass of a ``family`` kernel over ``n`` ints (``n >= WINDOW``).

    The copy walks every element (stride 1) and the sort orders one
    ``WINDOW``-int slice, so ``n`` alone sets the kernel's size.
    """
    if family == "sum":
        return nested_sum(name, n, 1, mul, rng.randrange(97),
                          rng.randrange(1, 9))
    if family == "copy":
        return stride_copy(name, n, 1, 1, mul, rng.randrange(100))
    return window_sort(name, n, 1, WINDOW, n, mul)


def mixed_op(seed: int, index: int, n: int) -> IsaOp:
    """Op ``index`` of a stream whose every op runs all three families.

    Each op has the same shape, one pass of one kernel per family over
    ``n`` ints; the seed and the index pick the data and constants. Ops
    therefore cost alike, which keeps a median over few ops steady.
    """
    rng = _rng(seed, index, "mixed")
    mul = 3 + 8 * index + 2 * rng.randrange(4)
    return program([kernel(family, f"k{i}", rng, n, mul)
                    for i, family in enumerate(FAMILIES)])


# ---------------------------------------------------------------------------
# Small compile-bound programs (the test_opt_fuzz grammar)
# ---------------------------------------------------------------------------

def tiny_program(seed: int, index: int) -> IsaOp:
    """A helper call, branches, an array and address-of/deref.

    The program's shape (array length, which
    optional branches exist) follows a fixed 20-op cycle and the seed
    picks the constants, so every run compiles the same mix of shapes.
    """
    rng = _rng(seed, index, "tiny")
    n = 4 + index % 5
    branchy = (index // 5) % 2 == 0
    tail = (index // 10) % 2 == 0
    mul, bias = rng.randint(1, 5), rng.randint(0, 40)
    dec, inc = rng.randint(1, 9), rng.randint(1, 9)
    mod, div = rng.randint(3, 9), rng.randint(2, 7)
    fill_mul, fill_add = rng.randint(1, 7), rng.randint(0, 9)
    scale = rng.randint(1, 3)
    # the op index rides in the constant added through the pointer, so
    # every program of a stream is distinct
    bump = 1 + index
    tail_mod, tail_at = rng.randint(2, 5), rng.randint(0, n - 1)

    lines = ["int helper(int x, int y) {", f"    int t = x * {mul} + y;"]
    if branchy:
        lines += [f"    if (t > {bias}) {{", f"        t = t - {dec};",
                  "    } else {", f"        t = t + {inc};", "    }"]
    lines += [f"    return t % {mod} + t / {div};", "}", "",
              "int main() {", f"    int a[{n}];", "    int s = 0;",
              f"    for (int i = 0; i < {n}; i = i + 1) {{",
              f"        a[i] = i * {fill_mul} + {fill_add};", "    }",
              "    int j = 0;", f"    while (j < {n}) {{",
              f"        s = s + helper(a[j], j) * {scale};",
              "        j = j + 1;", "    }",
              "    int p = &s;", f"    *p = *p + {bump};"]
    if tail:
        lines += [f"    if (s % {tail_mod} == 0) {{",
                  f"        s = s + a[{tail_at}];", "    }"]
    lines += ["    return s % 256;", "}"]

    def helper(x: int, y: int) -> int:
        t = i32(x * mul + y)
        if branchy:
            t = t - dec if t > bias else t + inc
        return i32(cmod(t, mod) + cdiv(t, div))

    a = [i * fill_mul + fill_add for i in range(n)]
    s = 0
    for j in range(n):
        s = i32(s + helper(a[j], j) * scale)
    s = i32(s + bump)
    if tail and cmod(s, tail_mod) == 0:
        s = i32(s + a[tail_at])
    return IsaOp(f"tiny/{index}", "\n".join(lines) + "\n", cmod(s, 256),
                 4 * n)


# ---------------------------------------------------------------------------
# Game of Life grids
# ---------------------------------------------------------------------------

def life_grid(seed: int, index: int, size: int):
    """A seeded random grid, about one third alive."""
    import numpy as np
    rng = np.random.default_rng([seed, index])
    return (rng.random((size, size)) < 0.33).astype(np.uint8)
