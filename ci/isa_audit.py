#!/usr/bin/env python3
"""What each per-ISA kernel entry of `tersoff` really compiles to.

    cargo rustc --release -p tersoff --lib -- --emit asm -C symbol-mangling-version=v0
    python3 ci/isa_audit.py [target/release/deps/tersoff-<hash>.s]

Without an argument the newest `target/release/deps/tersoff-*.s` is read.
For every `*_loop_{avx2,avx512}` entry that `vektor::multiversion_entries!`
generates, one row:

  insns      instructions in the entry's own body
  zmm%/ymm%  share of those instructions that name a zmm / ymm register
  sse        non-VEX instructions on xmm registers (baseline SSE encoding)
  libm       call sites of libm symbols, by name (external, listed apart)
  bounds     `panic_bounds_check` call sites
  baseline_callees
             direct callees defined in the same `.s` that contain non-VEX
             xmm instructions: code the entry calls but that was compiled
             for baseline x86-64, not for the entry's ISA.

Exits 1 if any entry has a baseline callee (or if no entry is found): the
kernel must compile inside its `#[target_feature]` entry, not beside it.
`-C symbol-mangling-version=v0` only adds the mode x scheme x width label
(legacy names carry a hash instead); the counts are the same either way.
"""
import collections
import glob
import os
import re
import sys

ENTRY = re.compile(r"(atom|pair|warp)_loop_(avx2|avx512)")
LIBM = {
    f + s
    for f in ("exp", "exp2", "expm1", "log", "log2", "log1p", "pow", "sin", "cos",
              "tan", "sincos", "sqrt", "cbrt", "fmod", "atan", "atan2")
    for s in ("", "f")
}
# A direct (or tail) call, a call through the GOT, or a GOT load into a register.
CALL = re.compile(r"^(?:call|callq|jmp)\s+\*?([\w$.]+?)(?:@PLT|@GOTPCREL\(%rip\))?$")
GOT_LOAD = re.compile(r"^movq\s+([\w$.]+)@GOTPCREL\(%rip\), (%\w+)$")
CALL_REG = re.compile(r"^(?:call|callq|jmp)\s+\*(%\w+)$")
MODES = {("d", "d"): "optd", ("f", "f"): "opts", ("f", "d"): "optm"}
SCHEMES = {"A": "1a", "B": "1b", "C": "1c"}


def read_functions(path):
    """Map each function symbol to the list of its instruction lines."""
    funcs, typed, name = {}, set(), None
    with open(path, encoding="utf-8", errors="replace") as f:
        for line in f:
            if name is None:
                if line.startswith("\t.type\t") and line.endswith(",@function\n"):
                    typed.add(line[len("\t.type\t"):-len(",@function\n")])
                elif line.endswith(":\n") and line[:-2] in typed:
                    name = line[:-2]
                    funcs[name] = []
            elif line.startswith(".Lfunc_end"):
                name = None
            elif line.startswith("\t") and not line.startswith(("\t.", "\t#")):
                funcs[name].append(line.strip())
    return funcs


def label(sym):
    """`optm_1b_f32x16 pair_loop_avx512` from a v0 name; the hash otherwise."""
    entry = ENTRY.search(sym).group(0)
    m = re.search(r"Mapping([ABC])([fd])([fd])Kj([0-9a-f]+)_", sym)
    if m:
        scheme, t, a, w = SCHEMES[m[1]], m[2], m[3], int(m[4], 16)
        return f"{MODES[t, a]}_{scheme}_{'f32' if t == 'f' else 'f64'}x{w} {entry}"
    m = re.search(r"TersoffScalarOpt([fd])([fd])", sym)
    if m:
        return f"{MODES[m[1], m[2]]}_scalar {entry}"
    h = re.search(r"17h([0-9a-f]{16})E$", sym)
    return f"{entry} [{h[1][:7] if h else sym[-12:]}]"


def non_vex_xmm(insn):
    return "%xmm" in insn and not insn.startswith("v")


def audit(funcs, sym):
    body = funcs[sym]
    regs, libm, callees = {}, collections.Counter(), set()
    bounds = 0
    for insn in body:
        m = GOT_LOAD.match(insn)
        if m:
            regs[m[2]] = m[1]
            continue
        m = CALL_REG.match(insn)
        target = regs.get(m[1]) if m else None
        if not m:
            m = CALL.match(insn)
            target = m[1] if m else None
        if target is None:
            continue
        if target in LIBM:
            libm[target] += 1
        elif "panic_bounds_check" in target:
            bounds += 1
        elif target in funcs and target != sym:
            callees.add(target)
    n = max(len(body), 1)
    baseline = sorted(c for c in callees if any(non_vex_xmm(i) for i in funcs[c]))
    return {
        "insns": len(body),
        "zmm": sum("%zmm" in i for i in body) / n,
        "ymm": sum("%ymm" in i for i in body) / n,
        "sse": sum(non_vex_xmm(i) for i in body),
        "libm": libm,
        "bounds": bounds,
        "baseline": baseline,
    }


def main():
    if len(sys.argv) > 1:
        path = sys.argv[1]
    else:
        found = glob.glob("target/release/deps/tersoff-*.s")
        if not found:
            sys.exit("no tersoff-*.s: run the cargo rustc command in this file's docstring")
        path = max(found, key=os.path.getmtime)
    funcs = read_functions(path)
    entries = sorted((label(s), s) for s in funcs if ENTRY.search(s))
    if not entries:
        sys.exit(f"::error::isa audit: no *_loop_avx2/avx512 entry in {path}")
    print(f"{'entry':<38} {'insns':>6} {'zmm%':>5} {'ymm%':>5} {'sse':>5} "
          f"{'bounds':>6} {'baseline_callees':>16}  libm")
    failures = 0
    for name, sym in entries:
        r = audit(funcs, sym)
        libm = " ".join(f"{k}:{v}" for k, v in sorted(r["libm"].items())) or "-"
        print(f"{name:<38} {r['insns']:>6} {100 * r['zmm']:>5.1f} {100 * r['ymm']:>5.1f} "
              f"{r['sse']:>5} {r['bounds']:>6} {len(r['baseline']):>16}  {libm}")
        for callee in r["baseline"]:
            n_sse = sum(non_vex_xmm(i) for i in funcs[callee])
            print(f"    calls baseline code: {callee} ({len(funcs[callee])} insns, {n_sse} sse)")
        failures += len(r["baseline"]) > 0
    if failures:
        print(f"::error::isa audit: {failures} entries call code compiled for baseline x86-64")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
